import json
import os
import random
import subprocess
import sys
from itertools import combinations, product
from math import gcd, prod

import pytest

from sposet import charfn as charfn_mod
from sposet import io as io_mod
from sposet.charfn import CharCheckReport, CharFunction, check, random_q_charfn
from sposet.cli import main
from sposet.corpus import corpus
from sposet.errors import (
    BudgetExhausted,
    InternalError,
    InvalidArgument,
    InvalidCharFn,
    MissingVertexAssignment,
    NonPrimitiveVector,
    WrongVectorLength,
)
from sposet.homology import INTEGERS, RATIONALS, prime_field
from sposet.poset import SimplexElem, barycentric, from_face_lattice, from_facets

from oracles import (
    antipodal_cross,
    cofactor_determinant,
    interval_ids,
    minor_gcd_invariant_factors,
    oracle_charfn_check,
    oracle_random_q_charfn,
    s1_x_s2,
    t3,
)

CP2 = {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)}
DET2 = {"v1": (1, 0), "v2": (0, 1), "v3": (1, 2)}
ALL_COEFFS = (INTEGERS, RATIONALS, prime_field(2), prime_field(3))


def _primitive(vec):
    g = gcd(*map(abs, vec))
    return tuple(x // g for x in vec)


def _random_lam(S, rng, bound=2):
    # a seeded assignment with small entries, valid or not
    assignment = {}
    for vid in [e.id for e in S.by_rank(1)]:
        while True:
            vec = tuple(rng.randint(-bound, bound) for _ in range(S.n))
            if any(vec):
                break
        assignment[vid] = _primitive(vec)
    return CharFunction(S.n, assignment)


def _k5():
    # K5 needs five pairwise independent directions in the plane, but
    # entries in {-1, 0, 1} only give four, so sampling at bound 1 fails
    return from_facets(combinations([f"v{i}" for i in range(1, 6)], 2), name="k5")


def _sample(sampler, S, seed, bound, budget):
    # the sampled assignment, or the fields of the BudgetExhausted raised
    try:
        return sampler(S, S.n, seed=seed, bound=bound, budget=budget).assignment
    except BudgetExhausted as err:
        return str(err), err.failing_simplex, err.attempts


class TestCharFunction:
    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitiveVector):
            CharFunction(2, {"v1": (2, 4)})
        with pytest.raises(NonPrimitiveVector):
            CharFunction(2, {"v1": (0, 0)})

    def test_wrong_length(self):
        with pytest.raises(WrongVectorLength):
            CharFunction(2, {"v1": (1, 0, 0)})

    @pytest.mark.parametrize("entry", ["1", True, 1.0, None])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(InvalidCharFn, match=repr(entry)):
            CharFunction(2, {"v1": (entry, 0)})

    def test_int_ids_are_taken_as_strs(self):
        assert CharFunction(2, {1: (1, 0), "v2": (0, 1)}).assignment == {
            "1": (1, 0), "v2": (0, 1)}

    def test_missing_vertex(self, bd_triangle, torus7):
        lam = CharFunction(2, {"v1": (1, 0), "v2": (0, 1)})
        with pytest.raises(MissingVertexAssignment):
            check(bd_triangle, lam, INTEGERS)
        # the first missing vertex in (rank, id) order is named
        with pytest.raises(MissingVertexAssignment, match="'v1'"):
            check(torus7, CharFunction(3, {"v7": (1, 0, 0)}), INTEGERS)


class TestCheck:
    def test_unimodular_assignment_over_z(self, bd_triangle):
        rep = check(bd_triangle, CharFunction(2, CP2), INTEGERS)
        assert rep.passed
        assert rep.first_failure is None
        assert all(ok for _, ok in rep.verdicts)

    def test_determinant_two_edge(self, bd_triangle):
        lam = CharFunction(2, DET2)
        over_z = check(bd_triangle, lam, INTEGERS)
        assert not over_z.passed
        assert over_z.first_failure == ("v1,v3", (1, 2))
        assert not check(bd_triangle, lam, prime_field(2)).passed
        assert check(bd_triangle, lam, RATIONALS).passed
        assert check(bd_triangle, lam, prime_field(3)).passed

    def test_repeated_vector_fails_everywhere(self, bd_triangle):
        lam = CharFunction(2, {"v1": (1, 0), "v2": (1, 0), "v3": (0, 1)})
        for coeff in (INTEGERS, RATIONALS, prime_field(2), prime_field(5)):
            assert not check(bd_triangle, lam, coeff).passed

    def test_monotone_under_faces(self, torus7):
        # a face passing forces all of its subfaces to pass
        lam = random_q_charfn(torus7, 3, seed=9, bound=4)
        rep = dict(check(torus7, lam, RATIONALS).verdicts)
        for e in torus7.elements():
            if rep[e.id]:
                for fid in e.facets:
                    assert rep[fid]

    def test_pass_over_z_implies_every_field(self, bd_triangle):
        # 100 seeded assignments, valid or not; whenever the integral
        # check passes, all field checks must pass too
        rng = random.Random(20240604)
        seen_pass = seen_fail = 0
        for _ in range(100):
            assignment = {}
            for v in ("v1", "v2", "v3"):
                while True:
                    vec = (rng.randint(-2, 2), rng.randint(-2, 2))
                    if any(vec):
                        break
                g = gcd(*map(abs, vec))
                assignment[v] = (vec[0] // g, vec[1] // g)
            lam = CharFunction(2, assignment)
            if check(bd_triangle, lam, INTEGERS).passed:
                seen_pass += 1
                assert check(bd_triangle, lam, RATIONALS).passed
                for p in (2, 3, 5):
                    assert check(bd_triangle, lam, prime_field(p)).passed
            else:
                seen_fail += 1
        assert seen_pass > 0 and seen_fail > 0


def _agrees_with_oracle(S, lam, coeffs=ALL_COEFFS):
    for coeff in coeffs:
        rep = check(S, lam, coeff)
        want = oracle_charfn_check(S, lam, coeff)
        assert (rep.verdicts, rep.passed, rep.first_failure) == want, (S.name, coeff.label)
        assert rep.coeff == coeff


class TestAgainstOracle:
    def test_corpus(self, corpus_posets):
        rng = random.Random(20261018)
        for name, S in corpus_posets.items():
            lams = [_random_lam(S, rng) for _ in range(6)]
            lams.append(random_q_charfn(S, S.n, seed=len(name), bound=3))
            for lam in lams:
                _agrees_with_oracle(S, lam)
            if name in ("two_arc_circle", "triangle_2gon"):
                # two faces on one vertex set: both outcomes are exercised
                assert {check(S, lam, INTEGERS).passed for lam in lams} == {True, False}

    def test_subdivided_torus(self, torus7):
        S = barycentric(torus7)
        rng = random.Random(7)
        for lam in (random_q_charfn(S, 3, seed=7, bound=5), _random_lam(S, rng, 3)):
            _agrees_with_oracle(S, lam)

    @pytest.mark.parametrize("build, seeds", [
        (s1_x_s2, (1, 2)),
        (lambda: antipodal_cross(4), (1, 2)),
        # one λ keeps T^3's 702 faces under a second
        (t3, (1,)),
    ], ids=["S1xS2", "RP3", "T3"])
    def test_rank_four(self, build, seeds):
        # n = 4, where a face below the top with no valid coface takes a
        # dense Smith form over z; RP^3 puts its 8 facets on one vertex set.
        # Each λ is valid over q, and fails over z
        S = build()
        for seed in seeds:
            lam = random_q_charfn(S, 4, seed=seed, bound=5)
            _agrees_with_oracle(S, lam, (INTEGERS, RATIONALS, prime_field(2)))
            assert check(S, lam, RATIONALS).passed
            assert not check(S, lam, INTEGERS).passed

    def test_non_pure(self):
        # the edge c,d is maximal: it has no coface and takes its own Smith form
        S = from_facets([{"a", "b", "c"}, {"c", "d"}], name="non_pure")
        rng = random.Random(11)
        for _ in range(20):
            _agrees_with_oracle(S, _random_lam(S, rng))
        lam = CharFunction(3, {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
                               "d": (0, 0, 1)})
        rep = check(S, lam, RATIONALS)
        assert rep.first_failure == ("c,d", (1,))
        assert [eid for eid, ok in rep.verdicts if not ok] == ["c,d"]

    @pytest.mark.parametrize("vectors", [
        # repeated vectors: an edge and both triangles fail over every ring
        {"v1": (1, 0, 0), "v2": (1, 0, 0), "v3": (0, 1, 0), "v4": (0, 0, 1)},
        # a non-unimodular edge: fails over z and fp:2 only
        {"v1": (1, 0, 0), "v2": (1, 2, 0), "v3": (0, 0, 1), "v4": (0, 1, 1)},
        # a dependent facet with independent edges
        {"v1": (1, 0, 0), "v2": (0, 1, 0), "v3": (1, 1, 0), "v4": (0, 0, 1)},
        # a facet of determinant 2, dependent over fp:2 only
        {"v1": (1, 0, 0), "v2": (0, 1, 0), "v3": (1, 1, 2), "v4": (1, 0, 1)},
    ])
    def test_failures_at_every_rank(self, vectors):
        S = from_facets([("v1", "v2", "v3"), ("v2", "v3", "v4"), ("v1", "v4")])
        _agrees_with_oracle(S, CharFunction(3, vectors))


class TestDeterminant:
    @staticmethod
    def _agrees(rows):
        assert charfn_mod._determinant(rows) == cofactor_determinant(rows), rows

    def test_seeded_against_cofactor_expansion(self):
        rng = random.Random(20261018)
        for size in range(7):
            for _ in range(60):
                # small entries make zero pivots and singular matrices common
                self._agrees([tuple(rng.randint(-2, 2) for _ in range(size))
                              for _ in range(size)])
            for _ in range(10):
                self._agrees([tuple(rng.randint(-10**12, 10**12) for _ in range(size))
                              for _ in range(size)])

    def test_zero_leading_pivot(self):
        # each needs a row swap, one of them at the second step
        for rows in ([(0, 1), (1, 0)],
                     [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
                     [(1, 2, 3), (2, 4, 5), (1, 3, 3)]):
            assert abs(charfn_mod._determinant(rows)) == 1
            self._agrees(rows)

    def test_singular(self):
        for rows in ([(0, 0), (0, 0)],
                     [(1, 2, 3), (2, 4, 6), (0, 1, 1)],
                     [(1, 0, 0), (0, 0, 0), (0, 0, 1)],
                     [(1, 2, 3), (4, 5, 6), (7, 8, 9)]):
            assert charfn_mod._determinant(rows) == 0
            self._agrees(rows)

    def test_large_prime_determinant(self):
        # the facet has determinant p = 2**61 - 1 and every edge is unimodular
        p = 2**61 - 1
        S = from_facets([("a", "b", "c")])
        lam = CharFunction(3, {"a": (1, 0, 0), "b": (0, 1, 0), "c": (1, 1, p)})
        for coeff in (INTEGERS, prime_field(p)):
            rep = check(S, lam, coeff)
            assert rep.first_failure == ("a,b,c", (1, 1, p))
            assert [eid for eid, ok in rep.verdicts if not ok] == ["a,b,c"]
        for coeff in (RATIONALS, prime_field(2)):
            assert check(S, lam, coeff).passed
        _agrees_with_oracle(S, lam)


class TestMinors:
    @staticmethod
    def _agrees(rows):
        k, n = len(rows), len(rows[0])
        minors = charfn_mod._minors(rows)
        want = [cofactor_determinant(rows, tuple(range(k)), cols)
                for cols in combinations(range(n), k)]
        assert sorted(map(abs, minors)) == sorted(map(abs, want)), rows
        # the gcd of the k x k minors is the k-th determinantal divisor
        factors = minor_gcd_invariant_factors(rows)
        assert gcd(*minors) == (prod(factors) if len(factors) == k else 0), rows

    @pytest.mark.parametrize("k,n", [(k, n) for n in (1, 2, 3) for k in range(1, n + 1)])
    def test_seeded_against_cofactor_expansion(self, k, n):
        rng = random.Random(20261019 + 10 * k + n)
        for _ in range(100):
            # small entries make singular matrices common
            self._agrees([tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)])
        for _ in range(20):
            self._agrees([tuple(rng.randint(-10**12, 10**12) for _ in range(n))
                          for _ in range(k)])

    def test_edge_dependent_mod_large_prime(self):
        # the edge a,b has minors (0, -2p, p): independent over Q and F_2,
        # dependent mod p = 2**61 - 1, and of factors (1, p) over Z
        p = 2**61 - 1
        a, b = (1, 0, 0), (1 + p, p, 2 * p)
        assert sorted(map(abs, charfn_mod._minors([a, b]))) == [0, p, 2 * p]
        S = from_facets([("a", "b", "c")])
        lam = CharFunction(3, {"a": a, "b": b, "c": (0, 0, 1)})
        for coeff in (INTEGERS, prime_field(p)):
            rep = check(S, lam, coeff)
            assert rep.first_failure == ("a,b", (1, p))
            assert [eid for eid, ok in rep.verdicts if not ok] == ["a,b", "a,b,c"]
        rep = check(S, lam, prime_field(p))
        assert (rep.verdicts, rep.passed, rep.first_failure) == oracle_charfn_check(
            S, lam, prime_field(p))
        for coeff in (RATIONALS, prime_field(2)):
            assert check(S, lam, coeff).passed
        _agrees_with_oracle(S, lam)


class TestSmithFormCount:
    """For n <= 3 faces are judged by written-out minors, and a Smith form
    is taken only for the first failure's factors; for n >= 4 faces of
    rank n take one determinant and others one Smith form, and the first
    failure takes one more."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"det": [], "snf": []}
        for key, name in (("det", "_determinant"), ("snf", "smith_normal_form")):
            real = getattr(charfn_mod, name)

            def counting(rows, real=real, log=calls[key]):
                log.append(rows)
                return real(rows)

            monkeypatch.setattr(charfn_mod, name, counting)
        return calls

    @pytest.fixture
    def check_calls(self, monkeypatch):
        log = []

        def counting(*args, real=charfn_mod.check):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(charfn_mod, "check", counting)
        return log

    @staticmethod
    def _reset(calls):
        for log in calls.values():
            log.clear()

    @staticmethod
    def _without_valid_coface(S, lam, coeff):
        # faces none of whose covering faces the oracle finds valid
        verdict = dict(oracle_charfn_check(S, lam, coeff)[0])
        return {e.id for e in S if not any(verdict[c.id] for c in S if e.id in c.facets)}

    @staticmethod
    def _rows(S, lam, eid):
        return [lam.assignment[v] for v in S.element(eid).vertices]

    def test_one_per_facet_when_valid(self, torus7, calls):
        S = barycentric(torus7)
        lam = random_q_charfn(S, 3, seed=7, bound=5)
        self._reset(calls)
        assert check(S, lam, RATIONALS).passed
        assert calls == {"det": [], "snf": []}
        # n = 4: one determinant per facet
        S = corpus("boundary_simplex(4)")
        lam = random_q_charfn(S, 4, seed=7, bound=5)
        self._reset(calls)
        assert check(S, lam, RATIONALS).passed
        assert len(calls["det"]) == len(S.by_rank(4)) == 5
        assert calls["snf"] == []

    def test_dependent_facet(self, full_triangle, calls):
        # make the first facet that allows it dependent, and no other face;
        # on a disc that facet has a free edge, so faces under it are judged
        S = barycentric(barycentric(full_triangle))
        valid = random_q_charfn(S, 3, seed=7, bound=5).assignment
        for facet in S.by_rank(3):
            x, y, z = facet.vertices
            vectors = {**valid, z: _primitive([a + b for a, b in zip(valid[x], valid[y])])}
            lam = CharFunction(3, vectors)
            verdicts = oracle_charfn_check(S, lam, RATIONALS)[0]
            if [eid for eid, ok in verdicts if not ok] == [facet.id]:
                break
        else:
            pytest.fail("no facet can be made the only dependent face")
        self._reset(calls)
        assert check(S, lam, RATIONALS).first_failure[0] == facet.id
        lonely = self._without_valid_coface(S, lam, RATIONALS)
        under = lonely & (interval_ids(S, facet.id) - {facet.id})
        assert under
        assert lonely == under | {e.id for e in S.by_rank(3)}
        # every face is judged by its minors; the one Smith form gives the
        # failing facet its factors
        assert calls == {"det": [], "snf": [self._rows(S, lam, facet.id)]}

    def test_repeated_vector_reduces_the_failing_edge(self, torus7, calls):
        # v1 and v2 share a vector: the edge and both its triangles fail,
        # and the edge, with no valid coface, is judged by its minors and
        # takes the one Smith form that gives the first failure its factors
        lam = random_q_charfn(torus7, 3, seed=1, bound=5)
        lam = CharFunction(3, {**lam.assignment, "v2": lam.assignment["v1"]})
        self._reset(calls)
        rep = check(torus7, lam, RATIONALS)
        failing = {eid for eid, ok in rep.verdicts if not ok}
        assert "v1,v2" in failing and len(failing) == 3
        assert rep.first_failure[0] == "v1,v2"
        lonely = self._without_valid_coface(torus7, lam, RATIONALS)
        assert calls["det"] == []
        assert calls["snf"] == [[lam.assignment["v1"]] * 2]
        assert lonely == {e.id for e in torus7.by_rank(3)} | {"v1,v2"}

    def test_passing_sampler_makes_no_check(self, torus7, calls, check_calls):
        # an attempt is judged by its maximal faces' minors alone
        S = barycentric(torus7)
        lam = random_q_charfn(S, 3, seed=7, bound=5)
        assert check_calls == []
        assert calls == {"det": [], "snf": []}
        assert check(S, lam, RATIONALS).passed

    def test_exhausted_sampler_checks_each_attempt_once(self, check_calls):
        # the replay runs one full check per attempt, and no other
        with pytest.raises(BudgetExhausted, match="'v1,v2' failed 80 times"):
            random_q_charfn(_k5(), 2, seed=3, bound=1, budget=300)
        assert len(check_calls) == 300

    def _cli_check(self, tmp_path, capsys, calls, coeff):
        S = barycentric(barycentric(corpus("boundary_simplex(3)")))
        lam = random_q_charfn(S, 3, seed=1, bound=5)
        poset_path, lam_path = tmp_path / "poset.json", tmp_path / "lam.json"
        poset_path.write_text(json.dumps(io_mod.emit_poset(S)))
        lam_path.write_text(json.dumps(io_mod.emit_charfn(lam)))
        self._reset(calls)
        code = main(["charfn", "check", str(lam_path), str(poset_path),
                     "--coeff", coeff, "--json"])
        return S, lam, code, json.loads(capsys.readouterr().out)

    def test_cli_check_over_q_takes_no_smith_form(self, tmp_path, capsys, calls):
        S, _, code, out = self._cli_check(tmp_path, capsys, calls, "q")
        assert code == 0 and out["passed"] is True
        assert len(S.by_rank(3)) == 144
        assert calls == {"det": [], "snf": []}

    def test_cli_check_over_z_takes_one_smith_form(self, tmp_path, capsys, calls):
        # a λ valid over Q fails over Z on most facets and on the edges
        # under them; only the reported first failure takes a Smith form
        S, lam, code, out = self._cli_check(tmp_path, capsys, calls, "z")
        assert code == 1 and out["passed"] is False
        assert sum(not ok for ok in out["verdicts"].values()) > len(S.by_rank(3))
        eid = out["first_failure"]["simplex"]
        assert calls == {"det": [], "snf": [self._rows(S, lam, eid)]}

    @pytest.mark.parametrize("name", ["torus7", "boundary_simplex(4)"])
    def test_seeded_counts_follow_the_split_by_n(self, corpus_posets, calls, name):
        # n <= 3: minors only, and one Smith form for a failing check's
        # first failure; n >= 4: one determinant per facet, one Smith form
        # per lower face with no valid coface, and one more for the first
        # failure, even where it repeats that face's own
        S = corpus_posets[name]
        rng = random.Random(20261019)
        lams = [_random_lam(S, rng) for _ in range(8)]
        lams.append(random_q_charfn(S, S.n, seed=3, bound=3))
        for lam in lams:
            for coeff in ALL_COEFFS:
                self._reset(calls)
                rep = check(S, lam, coeff)
                bad = rep.first_failure and rep.first_failure[0]
                if S.n <= 3:
                    want_det, want_snf = [], [bad] if bad else []
                else:
                    lonely = self._without_valid_coface(S, lam, coeff)
                    want_det = [e.id for e in reversed(S.elements()) if e.rank == S.n]
                    want_snf = [e.id for e in reversed(S.elements())
                                if e.id in lonely and e.rank < S.n]
                    # the first failure takes its own Smith form after the walk
                    want_snf += [bad] if bad else []
                assert calls == {
                    "det": [self._rows(S, lam, eid) for eid in want_det],
                    "snf": [self._rows(S, lam, eid) for eid in want_snf],
                }, (name, coeff.label)


class TestRandom:
    def test_boundary_triangle(self, bd_triangle):
        lam = random_q_charfn(bd_triangle, 2, seed=1, bound=3)
        assert check(bd_triangle, lam, RATIONALS).passed

    def test_torus7(self, torus7):
        lam = random_q_charfn(torus7, 3, seed=1, bound=5)
        assert check(torus7, lam, RATIONALS).passed

    def test_deterministic_per_seed(self, torus7):
        a = random_q_charfn(torus7, 3, seed=42, bound=5)
        b = random_q_charfn(torus7, 3, seed=42, bound=5)
        assert a.assignment == b.assignment

    def test_bound_zero_rejected(self, bd_triangle):
        with pytest.raises(NonPrimitiveVector):
            random_q_charfn(bd_triangle, 2, seed=1, bound=0)

    def test_wrong_rank_rejected(self, torus7):
        with pytest.raises(WrongVectorLength):
            random_q_charfn(torus7, 2, seed=1, bound=5)

    def test_rank_is_the_ambient_rank(self, full_triangle):
        # a triangle in ambient rank 4 takes vectors of length 4, and a
        # length of 3 is refused before any vector is drawn
        S = from_face_lattice(full_triangle.elements(), n=4)
        lam = random_q_charfn(S, 4, seed=1, bound=5)
        assert check(S, lam, RATIONALS).passed
        with pytest.raises(WrongVectorLength, match="need a poset of ambient rank 3, not 4"):
            random_q_charfn(S, 3, seed=1, bound=5)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, bd_triangle, budget):
        with pytest.raises(InvalidArgument):
            random_q_charfn(bd_triangle, 2, seed=1, bound=3, budget=budget)

    def test_keyed_by_vertex_name_not_id(self):
        # vertex ids x, y differ from their names a, b; check looks up names
        S = from_face_lattice([
            SimplexElem("x", ("a",), ()),
            SimplexElem("y", ("b",), ()),
            SimplexElem("xy", ("a", "b"), ("y", "x")),
        ])
        lam = random_q_charfn(S, 2, seed=1, bound=3)
        assert set(lam.assignment) == {"a", "b"}
        assert check(S, lam, RATIONALS).passed

    def test_budget_exhausted_reports_simplex(self):
        k5 = _k5()
        with pytest.raises(BudgetExhausted) as err:
            random_q_charfn(k5, 2, seed=3, bound=1, budget=300)
        assert err.value.failing_simplex in {e.id for e in k5.elements()}
        assert err.value.attempts == 300
        assert str(err.value) == (
            "no valid assignment in 300 attempts; simplex 'v1,v2' failed 80 times"
        )
        assert err.value.failing_simplex == "v1,v2"

    def test_agrees_with_the_full_check_loop(self, corpus_posets, torus7, full_triangle):
        # the same λ, or the same BudgetExhausted, as one full check per
        # attempt; boundary_simplex(4) judges its facets by determinants,
        # and a triangle in ambient rank 4 judges its facet by a Smith form
        posets = [*corpus_posets.values(), barycentric(torus7),
                  from_face_lattice(full_triangle.elements(), n=4)]
        outcomes = {}
        for S in posets:
            for seed, bound, budget in product(range(4), range(1, 6), (1, 8)):
                got = _sample(random_q_charfn, S, seed, bound, budget)
                want = _sample(oracle_random_q_charfn, S, seed, bound, budget)
                assert got == want, (S.name, S.n, seed, bound, budget)
                outcomes.setdefault(type(got), set()).add(S.name)
        assert set(outcomes) == {dict, tuple}
        assert {"boundary_simplex(4)", "sd(torus7)"} <= outcomes[tuple]

    def test_replay_refuses_a_passing_check(self, monkeypatch):
        # every attempt on k5 at bound 1 fails on a maximal face; a check
        # that passed one of them would contradict that, and is refused
        monkeypatch.setattr(charfn_mod, "check",
                            lambda S, lam, coeff: CharCheckReport(coeff, True, (), None))
        with pytest.raises(InternalError, match="passed check"):
            random_q_charfn(_k5(), 2, seed=3, bound=1, budget=5)


def test_checks_hold_under_python_O(tmp_path, capsys):
    # the verdicts are computed, not asserted: under -O every command
    # prints the same bytes and exits with the same code as in-process
    S = barycentric(corpus("torus7"))
    lam = random_q_charfn(S, 3, seed=5, bound=5)
    poset_path, lam_path = tmp_path / "poset.json", tmp_path / "lam.json"
    poset_path.write_text(json.dumps(io_mod.emit_poset(S)))
    lam_path.write_text(json.dumps(io_mod.emit_charfn(lam)))
    commands = [
        ["charfn", "check", str(lam_path), str(poset_path), "--coeff", "z", "--json"],
        ["charfn", "check", str(lam_path), str(poset_path), "--coeff", "q", "--json"],
        ["quotient", "cone", str(poset_path), "--n", "3", "--charfn", str(lam_path),
         "--json"],
        ["charfn", "random", str(poset_path), "--n", "3", "--seed", "5", "--bound", "5"],
    ]
    src = os.path.dirname(os.path.dirname(charfn_mod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    capsys.readouterr()
    codes = []
    for argv in commands:
        code = main(argv)
        want = capsys.readouterr().out
        run = subprocess.run([sys.executable, "-O", "-m", "sposet.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (code, want), (argv, run.stderr)
        codes.append(code)
    # over z the check fails, over q it passes, the cone report runs, and
    # the sampler prints the λ the library drew
    assert codes == [1, 0, 0, 0]
    assert json.loads(want) == io_mod.emit_charfn(lam)
