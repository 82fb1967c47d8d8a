import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from itertools import product
from math import comb
from pathlib import Path

import pytest

import sposet
from sposet import charfn as charfn_mod
from sposet import cli as cli_mod
from sposet import facevec as facevec_mod
from sposet import homology, spectral
from sposet.charfn import CharFunction, random_q_charfn
from sposet.classify import buchsbaum_witnesses, classify
from sposet.errors import (
    InconsistentBundle,
    InternalError,
    InvalidCharFn,
    NonFieldCoefficients,
    NotBuchsbaum,
    SposetError,
)
from sposet.corpus import corpus
from sposet.facevec import face_vector_report, identity_report
from sposet.homology import (
    INTEGERS, RATIONALS, parse_coefficients, prime_field, reduced_betti,
)
from sposet.cli import main
from sposet.io import dumps_canonical, emit_charfn, emit_poset
from sposet.poset import (
    SimplicialPoset, barycentric, from_face_lattice, from_facets, validate_stats,
)
from sposet.spectral import (
    CONE,
    MANIFOLD,
    QuotientProblem,
    e1_diagonal_hprime_form,
    make_problem,
    solve,
    verify,
)

import oracles
from conftest import FIELD_LABELS
from oracles import oracle_link


def cone_over(S, coeff=RATIONALS, lam=None):
    return make_problem(CONE, S, S.n, coeff, charfn=lam)


def solved(prob):
    return prob, solve(prob)


def wedge_of_tetrahedra():
    # two tetrahedron boundaries sharing vertex 0: rank 3, not Buchsbaum
    return from_facets([[v for v in t if v != w] for t in ("0123", "0456") for w in t])


def s1_x_s2():
    # the triangle boundary times the tetrahedron boundary, n = 4 with
    # b~_1 = b~_2 = b~_3 = 1: the first input where a page-3 differential fires
    K, L = ([f.vertices for f in corpus(name).by_rank(k)]
            for name, k in (("boundary_simplex(2)", 2), ("boundary_simplex(3)", 3)))
    return from_facets(oracles.staircase_product(K, L), name="S1xS2")


def solid_torus_problem(torus7):
    return make_problem(
        MANIFOLD, torus7, 3, RATIONALS,
        betti_q=(1, 1, 0, 0), iota=(1, 1, 0, 0), orientable=True,
    )


class TestMakeProblem:
    def test_cone_over_boundary_triangle(self, bd_triangle):
        prob = cone_over(bd_triangle)
        assert prob.betti_q == (1, 0, 0)
        assert prob.iota == (1, 0, 0)

    def test_solid_torus_bundle_valid(self, torus7):
        prob = solid_torus_problem(torus7)
        assert prob.kind == MANIFOLD

    def test_cylinder_poset_refused(self, corpus_posets):
        S = corpus_posets["s1xI_faceposet"]
        with pytest.raises(NotBuchsbaum) as err:
            make_problem(
                MANIFOLD, S, 2, RATIONALS,
                betti_q=(1, 1, 0), iota=(1, 1, 0), orientable=True,
            )
        assert {w[0] for w in err.value.witnesses} == {"F1", "F2"}

    def test_cylinder_poset_fine_at_rank_one(self, corpus_posets):
        S = corpus_posets["s1xI_faceposet"]
        assert buchsbaum_witnesses(S, RATIONALS, n=1) == ()
        prob = cone_over(S)
        assert solve(prob).bigraded.totals[0] == 1

    def test_integer_coefficients_rejected(self, torus7):
        with pytest.raises(NonFieldCoefficients):
            make_problem(CONE, torus7, 3, INTEGERS)

    def test_invalid_charfn(self, bd_triangle):
        bad = CharFunction(2, {"v1": (1, 0), "v2": (0, 1), "v3": (1, 2)})
        with pytest.raises(InvalidCharFn):
            make_problem(CONE, bd_triangle, 2, prime_field(2), charfn=bad)
        # but it passes over Q, where the determinant-2 edge is invertible
        assert make_problem(CONE, bd_triangle, 2, RATIONALS, charfn=bad)

    def test_manifold_needs_bundle_fields(self, torus7):
        with pytest.raises(InconsistentBundle):
            make_problem(MANIFOLD, torus7, 3, RATIONALS)

    def test_iota_bound_violation(self, torus7):
        # iota_1 = 1 > betti_q[1] = 0 is the same statement as delta_1 > relative[1]
        with pytest.raises(InconsistentBundle,
                           match=r"^rank delta_1 = 1 violates exactness bounds$"):
            make_problem(
                MANIFOLD, torus7, 3, RATIONALS,
                betti_q=(1, 0, 0, 0), iota=(1, 1, 0, 0), orientable=True,
            )

    def test_negative_delta_rejected(self, torus7):
        with pytest.raises(InconsistentBundle):
            make_problem(
                MANIFOLD, torus7, 3, RATIONALS,
                betti_q=(1, 0, 5, 0), iota=(1, 0, 1, 0), orientable=True,
            )

    def test_exactness_at_boundary_homology(self, torus7):
        # every bound holds, but delta_2 + iota_1 = 0 misses dim H_1(bd Q) = 2
        with pytest.raises(InconsistentBundle, match=r"delta_2 \+ rank iota_1 = 0 != 2"):
            make_problem(
                MANIFOLD, torus7, 3, RATIONALS,
                betti_q=(1, 0, 0, 0), iota=(1, 0, 0, 0), orientable=True,
            )

    @pytest.mark.parametrize("entry", ["1", True, 1.0])
    @pytest.mark.parametrize("field", ["betti_q", "iota"])
    def test_non_integer_rank_entry_rejected(self, torus7, field, entry):
        data = {"betti_q": [1, 1, 0, 0], "iota": [1, 1, 0, 0]}
        data[field][0] = entry
        with pytest.raises(InconsistentBundle, match=f"{field} entry {entry!r}"):
            make_problem(MANIFOLD, torus7, 3, RATIONALS, orientable=True, **data)

    def test_direct_problem_with_list_rank_data_refused(self, torus7):
        # make_problem takes a list as its tuple; the problem itself does not
        with pytest.raises(InconsistentBundle,
                           match=r"betti_q \[1, 1, 0, 0\] is not a tuple of integers"):
            QuotientProblem(MANIFOLD, torus7, 3, RATIONALS, None, [1, 1, 0, 0], (1, 1, 0, 0))

    def test_non_orientable_rejected(self, torus7):
        with pytest.raises(InconsistentBundle):
            make_problem(
                MANIFOLD, torus7, 3, RATIONALS,
                betti_q=(1, 1, 0, 0), iota=(1, 1, 0, 0), orientable=False,
            )


def _rank_grid(n):
    # betti_q with its ends pinned to 1 and 0, which other checks refuse
    # otherwise; its middle and every iota entry run over -1..2
    for mid in product(range(-1, 3), repeat=n - 1):
        for iota in product(range(-1, 3), repeat=n + 1):
            yield (1, *mid, 0), iota


class TestExactness:
    # RP^2 bounds no compact manifold (its Euler characteristic is odd),
    # so no rank data over its triangulation are exact, over any field
    @pytest.mark.parametrize("name, coeff, count", [
        ("rp2_6", RATIONALS, 0), ("rp2_6", prime_field(2), 0), ("torus7", RATIONALS, 2),
        ("boundary_simplex(2)", RATIONALS, 3),
    ], ids=["rp2_6-q", "rp2_6-fp2", "torus7-q", "triangle-q"])
    def test_accepts_exactly_the_exact_rank_data(self, corpus_posets, name, coeff, count):
        S = corpus_posets[name]
        reduced = oracles.dense_betti(S, coeff)[0]
        exact, accepted = set(), set()
        for betti_q, iota in _rank_grid(S.n):
            if oracles.exact_sequence(reduced, betti_q, iota):
                exact.add((betti_q, iota))
            try:
                make_problem(MANIFOLD, S, S.n, coeff, betti_q=betti_q, iota=iota,
                             orientable=True)
            except InconsistentBundle:
                continue
            accepted.add((betti_q, iota))
        assert accepted == exact
        assert len(exact) == count

    @pytest.mark.parametrize("coeff, betti_q, iota", [
        (RATIONALS, (1, 0, 0, 0), (1, 0, 0, -1)),
        (prime_field(3), (1, 3, 3, 0), (1, 0, 0, -1)),
        (prime_field(2), (1, 1, 1, 0), (1, 0, 1, -1)),
    ])
    def test_negative_top_iota_refused(self, corpus_posets, coeff, betti_q, iota):
        # every delta bound holds, but H_3(bd Q) = 0 takes no rank -1 map
        with pytest.raises(InconsistentBundle, match=(
                r"^rank delta_4 \+ rank iota_3 = -1 != 0 = dim H_3\(bd Q\)$")):
            make_problem(MANIFOLD, corpus_posets["rp2_6"], 3, coeff,
                         betti_q=betti_q, iota=iota, orientable=True)

    def test_negative_rank_in_solve_is_internal_error(self, torus7, monkeypatch):
        # exact rank data leave no table cell negative; only a library
        # fault, here an h-vector lowered by 10, can make one
        prob = cone_over(torus7)
        real = spectral.face_vector_report

        def lowered(S, coeff):
            rep = real(S, coeff)
            return replace(rep, h=tuple(x - 10 for x in rep.h))

        monkeypatch.setattr(spectral, "face_vector_report", lowered)
        with pytest.raises(InternalError, match=r"^negative rank at \(0, 0\) on page ea2$"):
            solve(prob)


class TestRelativeAndDelta:
    @pytest.mark.parametrize("n", [2, 4, 3.0])
    def test_hand_built_problem_with_other_rank_refused(self, torus7, n):
        # a problem built by replace meets make_problem's checks in its
        # order: 3.0 is no int, and at rank 2 or 4 every link of torus7
        # has homology off its top degree
        with pytest.raises(SposetError) as want:
            make_problem(CONE, torus7, n, RATIONALS)
        with pytest.raises(SposetError) as got:
            replace(cone_over(torus7), n=n)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_replaced_poset_of_other_ambient_rank_refused(self, torus7):
        # Buchsbaum at rank 3, but its ambient rank is 4: refused at replace
        padded = from_face_lattice(torus7.elements(), n=4)
        assert buchsbaum_witnesses(padded, RATIONALS, n=3) == ()
        with pytest.raises(InconsistentBundle, match="ambient rank 4 does not match problem"):
            replace(cone_over(torus7), poset=padded)

    @pytest.mark.parametrize("kind, change", [
        (MANIFOLD, {"betti_q": (1, 0)}),
        (MANIFOLD, {"iota": (1, 1, 0)}),
        (MANIFOLD, {"betti_q": (1, "a", 0, 0)}),
        (MANIFOLD, {"iota": (1, True, 0, 0)}),
        (MANIFOLD, {"betti_q": (2, 1, 0, 0)}),
        (MANIFOLD, {"betti_q": (1, 1, 0, 1)}),
        (MANIFOLD, {"kind": "bogus"}),
        (CONE, {"betti_q": (1, 1, 0, 0)}),
        (CONE, {"iota": (1, 0, 0, 1)}),
    ])
    def test_replaced_bundle_refused_as_make_problem_refuses(self, torus7, kind, change):
        # a problem built by dataclasses.replace skips make_problem, but
        # not the checks, which the problem makes at construction
        base = solid_torus_problem(torus7) if kind == MANIFOLD else cone_over(torus7)
        data = {"kind": base.kind, "betti_q": base.betti_q, "iota": base.iota, **change}
        with pytest.raises(SposetError) as want:
            make_problem(data.pop("kind"), torus7, 3, RATIONALS, orientable=True, **data)
        with pytest.raises(SposetError) as got:
            replace(base, **change)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("name, error", [
        ("poset", NotBuchsbaum), ("charfn", InvalidCharFn), ("coeff", NonFieldCoefficients),
    ])
    def test_replaced_field_refused_at_replace(self, torus7, name, error):
        # what make_problem once checked alone: the Buchsbaum condition,
        # the characteristic function and the field
        bad = {"poset": wedge_of_tetrahedra(),
               "charfn": CharFunction(3, {v: (1, 0, 0) for e in torus7.by_rank(1)
                                          for v in e.vertices}),
               "coeff": INTEGERS}
        prob = cone_over(torus7)
        with pytest.raises(error):
            replace(prob, **{name: bad[name]})

    def test_replaced_bundle_refused_under_python_O(self):
        script = (
            "from dataclasses import replace\n"
            "from sposet import INTEGERS, RATIONALS, CharFunction, SposetError, corpus\n"
            "from sposet import from_facets, make_problem\n"
            "p = make_problem('manifold', corpus('torus7'), 3, RATIONALS,\n"
            "                 betti_q=(1, 1, 0, 0), iota=(1, 1, 0, 0), orientable=True)\n"
            "wedge = from_facets([[a for a in t if a != b] for t in ('0123', '0456')\n"
            "                     for b in t])\n"
            "lam = CharFunction(3, {f'v{i}': (1, 0, 0) for i in range(1, 8)})\n"
            "for change in ({'betti_q': (1, 0)}, {'kind': 'bogus'}, {'poset': wedge},\n"
            "               {'charfn': lam}, {'coeff': INTEGERS}):\n"
            "    try:\n"
            "        replace(p, **change)\n"
            "    except SposetError as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sposet.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["InconsistentBundle", "InvalidArgument", "NotBuchsbaum",
                               "InvalidCharFn", "NonFieldCoefficients"]

    def test_cone_over_torus7(self, torus7):
        prob = cone_over(torus7)
        assert prob.relative == (0, 0, 2, 1)
        assert prob.delta == (0, 0, 2, 1)
        assert prob.boundary == (1, 2, 1)

    def test_solid_torus(self, torus7):
        prob = solid_torus_problem(torus7)
        assert prob.relative == (0, 0, 1, 1)
        assert prob.delta == (0, 0, 1, 1)

    def test_cone_over_boundary_triangle(self, bd_triangle):
        prob = cone_over(bd_triangle)
        assert prob.relative == (0, 0, 1)
        assert prob.delta[2] == 1


class TestTruncatedFirstPage:
    def test_torus7_rows(self, torus7):
        t = solve(cone_over(torus7)).e1trunc
        assert [t.rank(p, 0) for p in range(3)] == [14, 21, 7]
        assert [t.rank(p, 1) for p in range(1, 3)] == [21, 14]
        assert t.rank(2, 2) == 7

    def test_boundary_triangle_row(self, bd_triangle):
        t = solve(cone_over(bd_triangle)).e1trunc
        assert [t.rank(p, 0) for p in range(2)] == [3, 3]

    def test_row_euler_sums(self, corpus_posets):
        # alternating row sums reproduce (chi - 1) C(n, q) + (-1)^q h_q
        for name, S in corpus_posets.items():
            if buchsbaum_witnesses(S, RATIONALS):
                continue
            prob = cone_over(S)
            t = solve(prob).e1trunc
            rep = face_vector_report(S, RATIONALS)
            h, chi, n = rep.h, rep.chi, S.n
            for q in range(n):
                row = sum(
                    (t.rank(p, q) if p % 2 == 0 else -t.rank(p, q))
                    for p in range(n)
                )
                assert row == (chi - 1) * comb(n, q) + (-1) ** q * h[q], (name, q)


class TestPages:
    def test_cone_over_torus7(self, torus7):
        prob = cone_over(torus7)
        tabs = solve(prob)
        assert tabs.ea1.diagonal(3) == (1, 10, 7, 1)
        assert tabs.eainf.diagonal(3) == (1, 4, 4, 1)
        hpp = face_vector_report(torus7, RATIONALS).hdoubleprime
        assert tabs.eainf.diagonal(3) == hpp

    def test_solid_torus_pages(self, torus7):
        tabs = solve(solid_torus_problem(torus7))
        assert tabs.ea1.diagonal(3) == (1, 10, 7, 1)
        hp = face_vector_report(torus7, RATIONALS).hprime
        assert tabs.ea2.diagonal(3) == (1, 10, 4, 1)
        assert tabs.ea2.diagonal(3) == tuple(hp[3 - q] for q in range(4))

    def test_cone_over_boundary_triangle(self, bd_triangle):
        tabs = solve(cone_over(bd_triangle))
        assert tabs.eainf.diagonal(2) == (1, 1, 1)
        # Cohen-Macaulay input: off-diagonal and non-surviving column
        # entries die below total degree 2n
        for (p, q), v in tabs.eainf.cells.items():
            assert p == q or (p == 2 and p + q == 4) or v == 0

    def test_pages_monotone_nonincreasing(self, torus7, bd_triangle):
        for prob in (
            cone_over(torus7),
            solid_torus_problem(torus7),
            cone_over(bd_triangle),
        ):
            tabs = solve(prob)
            cells = set(tabs.ea1.cells) | set(tabs.ea2.cells) | set(
                tabs.eainf.cells
            )
            for p, q in cells:
                a, b, c = (
                    tabs.ea1.rank(p, q),
                    tabs.ea2.rank(p, q),
                    tabs.eainf.rank(p, q),
                )
                assert a >= b >= c >= 0

    def test_vanishing_region(self, torus7):
        tabs = solve(solid_torus_problem(torus7))
        for (p, q), v in tabs.ea1.cells.items():
            if v:
                assert q <= p or p == 3

    def test_diagonal_cross_paths_agree(self, corpus_posets):
        # wherever the poset is a homology manifold orientable over the
        # field, the h'-form must reproduce the general diagonal
        for name, S in corpus_posets.items():
            links = {e.id: oracle_link(S, e.id) for e in S.elements()}
            for coeff in (RATIONALS, prime_field(2)):
                if buchsbaum_witnesses(S, coeff):
                    continue
                prob = cone_over(S, coeff)
                n = S.n
                manifold_like = all(
                    reduced_betti(links[e.id], coeff).degree(n - 1 - e.rank) == 1
                    for e in S.elements()
                )
                orientable = reduced_betti(S, coeff).degree(n - 1) == 1
                if manifold_like and orientable:
                    assert solve(prob).ea1.diagonal(n) == e1_diagonal_hprime_form(
                        prob
                    ), (name, coeff.label)


class TestPageThree:
    """S^1 x S^2: delta_2 = 1 feeds the differential d^3 of page three,
    which only eainf sees, into column 1."""

    def test_shape(self):
        S = s1_x_s2()
        assert (len(S.by_rank(4)), len(S), S.n) == (36, 168, 4)
        assert validate_stats(S).f == (1, 12, 48, 72, 36)
        for coeff in (INTEGERS, RATIONALS, prime_field(2), prime_field(3)):
            assert reduced_betti(S, coeff).reduced == (0, 0, 1, 1, 1)
            cls = classify(S, coeff)
            assert cls.buchsbaum and cls.homology_manifold

    @pytest.mark.parametrize("label", FIELD_LABELS)
    def test_page_three_differential(self, label):
        prob = cone_over(s1_x_s2(), parse_coefficients(label))
        tabs = solve(prob)
        assert prob.delta == (0, 0, 1, 1, 1)
        # (1, 0): 1 -> 0 and (1, 1): 12 -> 8; no earlier page reaches column 1
        for q in (0, 1):
            assert tabs.ea2.rank(1, q) - tabs.eainf.rank(1, q) == comb(4, q)
        assert (tabs.ea2.rank(1, 0), tabs.ea2.rank(1, 1)) == (1, 12)
        assert tabs.eainf.diagonal(4) == (1, 8, 12, 8, 1)
        assert verify(prob, tabs).all_passed


class TestBigraded:
    def test_cone_over_torus7(self, torus7):
        big = solve(cone_over(torus7)).bigraded
        assert big.rank(1, 1) == 4
        assert big.rank(2, 2) == 10
        assert big.rank(2, 3) == 2
        assert big.rank(3, 3) == 1
        assert big.totals == (1, 0, 4, 0, 10, 2, 1)

    def test_solid_torus(self, torus7):
        big = solve(solid_torus_problem(torus7)).bigraded
        assert dict(big.cells) == {
            (0, 0): 1, (1, 0): 1, (1, 1): 7, (2, 2): 7, (2, 3): 1, (3, 3): 1,
        }
        assert big.totals == (1, 1, 7, 0, 7, 1, 1)

    def test_cone_over_boundary_triangle_is_projective_plane_profile(
        self, bd_triangle
    ):
        big = solve(cone_over(bd_triangle)).bigraded
        assert big.totals == (1, 0, 1, 0, 1)
        h = face_vector_report(bd_triangle, RATIONALS).h
        assert tuple(big.totals[2 * j] for j in range(3)) == h

    def test_connected_input_has_unit_bottom(self, torus7, bd_triangle):
        for prob in (cone_over(torus7), solid_torus_problem(torus7)):
            assert solve(prob).bigraded.totals[0] == 1


class TestVerify:
    def test_cone_over_torus7(self, torus7):
        rep = verify(*solved(cone_over(torus7)))
        assert rep.all_passed
        assert rep.checks["diagonal_is_h_double"]
        assert rep.notes["chi_x"] == 14
        assert rep.notes["chi_x_equals_top_face_count"]

    def test_solid_torus(self, torus7):
        rep = verify(*solved(solid_torus_problem(torus7)))
        assert rep.all_passed
        assert rep.checks["bigraded_duality"]
        assert rep.checks["diagonal_is_h_prime"]

    @pytest.mark.parametrize("facets, betti_q", [
        # two disjoint circles: classify refuses a disconnected poset
        (["ab", "bc", "ac", "xy", "yz", "xz"], (1, 1, 0)),
        # a circle with a pendant edge: no homology manifold
        (["ab", "bc", "ac", "cd"], (1, 0, 0)),
    ], ids=["disconnected", "pendant_edge"])
    def test_manifold_skips_h_prime_off_orientable_manifolds(self, facets, betti_q):
        S = from_facets([list(f) for f in facets])
        prob = make_problem(MANIFOLD, S, 2, RATIONALS, betti_q=betti_q, iota=betti_q,
                            orientable=True)
        rep = verify(*solved(prob))
        assert "diagonal_is_h_prime" not in rep.checks
        assert rep.skipped["diagonal_is_h_prime"] == (
            "poset is not an orientable homology manifold over this field")

    def test_duality_pairs_explicitly(self, torus7):
        big = solve(solid_torus_problem(torus7)).bigraded
        assert big.rank(1, 0) == big.rank(2, 3) == 1
        assert big.rank(1, 1) == big.rank(2, 2) == 7

    def test_cone_over_boundary_triangle_trivial(self, bd_triangle):
        assert verify(*solved(cone_over(bd_triangle))).all_passed

    def test_lambda_independence(self, torus7):
        # solve never reads λ, so a comparison across two could not fail:
        # every report skips it, with λ or without
        lam = random_q_charfn(torus7, 3, seed=5, bound=5)
        for prob in (cone_over(torus7, lam=lam), cone_over(torus7),
                     solid_torus_problem(torus7)):
            rep = verify(*solved(prob))
            assert "lambda_independent" in rep.skipped
            assert "lambda_independent" not in rep.checks
            assert "lambda_independent_random" not in rep.skipped
            assert rep.skipped["lambda_independent"].isascii()

    @pytest.mark.parametrize("kind, label, cell, value, key", [
        ("cone", "ea1", (0, 0), 2, "euler_conserved"),
        ("cone", "eainf", (3, 1), 7, "pages_match_closed_forms"),
        ("cone", "eainf", (1, 1), 5, "diagonal_is_h_double"),
        ("cone", "eainf", (1, 1), -1, "diagonal_is_h_double"),
        ("cone", "eainf", (1, 1), -1, "h_double_nonneg"),
        ("solid_torus", "ea2", (2, 2), 5, "diagonal_is_h_prime"),
        ("solid_torus", "bigraded", (1, 0), 2, "bigraded_duality"),
    ])
    def test_each_check_can_fail(self, torus7, kind, label, cell, value, key):
        # one corrupted cell of a solved table turns its check false
        prob = cone_over(torus7) if kind == "cone" else solid_torus_problem(torus7)
        tables = solve(prob)
        assert verify(prob, tables).checks[key]
        table = getattr(tables, label)
        assert table.rank(*cell) != value
        corrupt = replace(table, cells={**table.cells, cell: value})
        assert not verify(prob, replace(tables, **{label: corrupt})).checks[key]

    def test_euler_conserved_across_corpus_cones(self, corpus_posets):
        for S in corpus_posets.values():
            if buchsbaum_witnesses(S, RATIONALS):
                continue
            rep = verify(*solved(cone_over(S)))
            assert rep.checks["euler_conserved"], S.name
            assert rep.checks["pages_match_closed_forms"], S.name


def _torus7_report():
    # a fresh torus7, and one full report on it: identities, both quotient
    # problems, their tables and their checks
    S = corpus("torus7")

    def report():
        identity_report(S, RATIONALS)
        problems = (
            make_problem(CONE, S, 3, RATIONALS),
            make_problem(
                MANIFOLD, S, 3, RATIONALS,
                betti_q=(1, 1, 0, 0), iota=(1, 1, 0, 0), orientable=True,
            ),
        )
        for prob in problems:
            verify(prob, solve(prob))

    return S, report


class TestComputeOnce:
    def test_second_report_makes_no_smith_forms(self, monkeypatch):
        # the sparse elimination, the dense Smith forms of its cores and of λ
        calls = []

        def counting(real):
            def wrapper(matrix):
                calls.append(matrix)
                return real(matrix)
            return wrapper

        for mod, name in ((homology, "_unit_smith_form"), (homology, "smith_normal_form"),
                          (charfn_mod, "smith_normal_form")):
            monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
        _, report = _torus7_report()
        report()
        assert calls
        calls.clear()
        report()
        assert calls == []

    def test_h_polynomial_expanded_once_per_poset(self, monkeypatch):
        # the expansion reads the f-vector through facevec's one
        # validate_stats binding; the purity gate reads classify's
        expanded = []
        real = facevec_mod.validate_stats

        def counting(S):
            expanded.append(S)
            return real(S)

        monkeypatch.setattr(facevec_mod, "validate_stats", counting)
        S, report = _torus7_report()
        report()
        assert expanded == [S]
        expanded.clear()
        report()
        assert expanded == []

    def test_library_keeps_one_homology_route(self):
        # link homology is read off each poset's one sparse complex; the
        # dense matrices and the link posets live only in tests/oracles.py
        assert sposet.__all__ == [
            "CharFunction", "Classification", "Coefficients", "CONE",
            "FaceVectorReport", "INTEGERS", "MANIFOLD", "QuotientProblem",
            "RATIONALS", "SimplexElem", "SimplicialPoset", "SposetError",
            "Tables", "barycentric", "classify", "corpus", "corpus_names",
            "face_vector_report", "from_face_lattice", "from_facets",
            "identity_report", "make_problem", "parse_coefficients",
            "prime_field", "reduced_betti", "smith_normal_form", "solve",
            "validate_stats", "verify",
        ]
        # no public name that only tests call, no alias, no stored
        # field whose value is fixed, and one union-find for components
        mods = {k: sys.modules[f"sposet.{k}"]
                for k in ("classify", "io", "poset", "homology")}
        assert not hasattr(mods["classify"], "link_table")
        assert not hasattr(mods["io"], "emit_problem")
        assert not hasattr(SimplicialPoset, "vertex_ids")
        assert not hasattr(SimplicialPoset, "above")
        assert not hasattr(sposet.spectral.BigradedTable, "dim")
        assert "orientable" not in {f.name for f in fields(sposet.QuotientProblem)}
        assert [f.name for f in fields(homology.SnfResult)] == ["factors"]
        assert homology.SnfResult((1, 2)).rank == 2
        assert mods["homology"]._components is mods["poset"]._components

    def test_report_builds_no_link_posets(self, monkeypatch):
        # no link poset is built in the library; the test oracle is the
        # only builder left, and the report must not reach it either
        def no_link(S, eid):
            raise AssertionError(f"link poset of {eid!r} built")

        for mod in list(sys.modules.values()):
            if mod and mod.__name__.startswith("sposet"):
                assert not hasattr(mod, "link"), mod.__name__
        monkeypatch.setattr(oracles, "oracle_link", no_link)
        _, report = _torus7_report()
        report()

    def test_cone_report_builds_no_dense_boundary_matrices(self, monkeypatch, capsys, tmp_path):
        def no_dense(S, root=None):
            raise AssertionError(f"dense boundary matrices of {root!r} built")

        for name in ("boundary_matrices", "ChainData"):
            assert not hasattr(homology, name), name
        monkeypatch.setattr(oracles, "dense_boundaries", no_dense)
        path = tmp_path / "sd_torus7.json"
        path.write_text(dumps_canonical(emit_poset(barycentric(corpus("torus7")))))
        for source in (["--corpus", "torus7"], [str(path)]):
            assert main(["quotient", "cone", *source, "--n", "3", "--json"]) == 0
            assert '"euler_conserved":true' in capsys.readouterr().out

    def test_cone_report_checks_once_and_walks_each_up_set_once(self, monkeypatch, capsys):
        # d.d = 0 once per poset.  The two lowest matrices of every up-set
        # are read off the covers and their covers, so an up-set is built
        # only for the whole poset (its minimal element, None) and for the
        # faces of codimension >= 3; on torus7 (n = 3) that is None alone
        checks, walks = [], Counter()
        real_check, real_build = homology._check_complex, homology._up_set_forms

        def check(incidence):
            checks.append(incidence)
            real_check(incidence)

        def build(S, root):
            walks[root] += 1
            return real_build(S, root)

        monkeypatch.setattr(homology, "_check_complex", check)
        monkeypatch.setattr(homology, "_up_set_forms", build)
        assert main(["quotient", "cone", "--corpus", "torus7", "--n", "3", "--json"]) == 0
        assert '"euler_conserved":true' in capsys.readouterr().out
        assert len(checks) == 1
        assert walks == Counter([None])

    @pytest.mark.parametrize("argv", [
        ["cone", "--corpus", "torus7", "--n", "3"],
        ["manifold", "--corpus", "torus7", "--n", "3", "--betti-q", "1,1,0,0",
         "--iota", "1,1,0,0"],
    ], ids=["cone", "manifold"])
    def test_report_checks_its_problem_once(self, argv, monkeypatch, capsys):
        # the problem checks itself when built; solve, verify and the
        # manifold's h'-form read what it derived and check nothing again
        checks = []
        real = spectral.QuotientProblem.__post_init__

        def check(prob):
            checks.append(prob.kind)
            real(prob)

        monkeypatch.setattr(spectral.QuotientProblem, "__post_init__", check)
        assert main(["quotient", *argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert '"euler_conserved":true' in out
        assert ('"diagonal_is_h_prime":true' in out) == (argv[0] == MANIFOLD)
        assert checks == [argv[0]]
        assert not hasattr(spectral, "relative_and_delta")

    @pytest.mark.parametrize("argv", [
        ["cone", "--corpus", "torus7", "--n", "3"],
        ["manifold", "--corpus", "torus7", "--n", "3", "--betti-q", "1,1,0,0",
         "--iota", "1,1,0,0"],
    ], ids=["cone", "manifold"])
    def test_report_builds_one_face_record_per_ring(self, argv, monkeypatch, capsys):
        # the identities, solve, verify and the manifold's h'-form read one
        # face-number record per (poset, ring), the one entry the poset keeps
        S, built = corpus("torus7"), []
        real = facevec_mod.FaceVectorReport

        def record(**values):
            built.append(values["coeff"])
            return real(**values)

        monkeypatch.setattr(facevec_mod, "FaceVectorReport", record)
        monkeypatch.setattr(cli_mod, "corpus", lambda name: S)
        for field in ("q", "fp:2", "q"):
            assert main(["quotient", *argv, "--field", field, "--json"]) == 0
            assert '"euler_conserved":true' in capsys.readouterr().out
        assert built == [RATIONALS, prime_field(2)]
        kept = [v.coeff for v in S._cache.values() if isinstance(v, real)]
        assert kept == [RATIONALS, prime_field(2)]
        for mod in list(sys.modules.values()):
            if mod and mod.__name__.startswith("sposet"):
                for name in ("f_h_vectors", "ft_vector", "h_prime_double"):
                    assert not hasattr(mod, name), (mod.__name__, name)

    def test_lambda_report_builds_link_table_and_ft_once(self, monkeypatch, capsys, tmp_path):
        # a cone report with λ solves once and draws no second λ; the link
        # table is built once, each face's row read once, and ft summed
        # once.  A second report on the same poset object does neither again.
        S = corpus("torus7")
        lam = tmp_path / "lam.json"
        lam.write_text(dumps_canonical(emit_charfn(random_q_charfn(S, 3, seed=5, bound=5))))
        rows, sums, solves = Counter(), [], []
        real_row, real_table, real_solve = homology._low_row, facevec_mod._link_table, spectral.solve

        def row(cofaces, root):
            rows[root] += 1
            return real_row(cofaces, root)

        def table(S, coeff):
            sums.append(coeff)
            return real_table(S, coeff)

        def solve_counted(prob):
            solves.append(prob.charfn)
            return real_solve(prob)

        def no_draw(*args, **kwargs):
            raise AssertionError("a second λ drawn")

        monkeypatch.setattr(homology, "_low_row", row)
        monkeypatch.setattr(facevec_mod, "_link_table", table)
        monkeypatch.setattr(spectral, "solve", solve_counted)
        monkeypatch.setattr(charfn_mod, "random_q_charfn", no_draw)
        monkeypatch.setattr(cli_mod, "corpus", lambda name: S)
        argv = ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q",
                "--charfn", str(lam), "--json"]
        assert main(argv) == 0
        assert '"lambda_independent":"the rank' in capsys.readouterr().out
        assert len(solves) == 1 and solves[0] is not None
        # None is the whole poset, which the problem's check reads
        assert rows == Counter([None, *(e.id for e in S.elements())])
        assert sums == [RATIONALS]
        for seen in (rows, sums, solves):
            seen.clear()
        assert main(argv) == 0
        assert '"lambda_independent":"the rank' in capsys.readouterr().out
        assert len(solves) == 1 and not rows and not sums

    @pytest.mark.parametrize("build, expected", [
        (lambda: barycentric(barycentric(corpus("boundary_simplex(3)"))), 1),
        (lambda: from_facets([[f"v{j}" for j in range(7) if j != i] for i in range(7)]), 102),
    ], ids=["sd(sd(boundary_simplex(3)))", "boundary_simplex(6)"])
    def test_cone_report_kernel_calls(self, build, expected, monkeypatch, capsys, tmp_path):
        # One sparse elimination per boundary matrix above level 2 of an
        # up-set.  The twice subdivided 2-sphere (n = 3) has one, of the
        # whole poset.  The boundary of the 6-simplex (n = 6) has 4 for the
        # whole poset and 3, 2 and 1 per face of rank 1, 2 and 3:
        # 4 + 7*3 + 21*2 + 35*1.
        S = build()
        path = tmp_path / "poset.json"
        path.write_text(dumps_canonical(emit_poset(S)))
        calls = []
        real = homology._unit_smith_form

        def counting(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(homology, "_unit_smith_form", counting)
        argv = ["quotient", "cone", str(path), "--n", str(S.n), "--field", "q", "--json"]
        assert main(argv) == 0
        assert '"euler_conserved":true' in capsys.readouterr().out
        assert len(calls) == expected

