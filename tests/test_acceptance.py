"""Acceptance suite: one test per release criterion, exact arithmetic.

Each test prints a single pass/fail line (visible with -s or on
failure) so the suite doubles as a checklist.  Everything asserted
here is either a frozen hand-derived value or an independent oracle.
"""
import json
import random
from contextlib import contextmanager
from math import gcd
from pathlib import Path

from click.testing import CliRunner

from sposet import io as io_mod
from sposet.charfn import CharFunction, check, random_q_charfn
from sposet.classify import buchsbaum_witnesses, classify
from sposet.cli import cli
from sposet.corpus import CYLINDER_QUOTIENT_PROFILES, corpus, corpus_names
from sposet.errors import NotBuchsbaum
from sposet.facevec import face_vector_report, identity_report
from sposet.homology import (
    INTEGERS,
    RATIONALS,
    prime_field,
    reduced_betti,
)
from sposet.poset import from_facets
from sposet.spectral import (
    CONE,
    MANIFOLD,
    e1_diagonal_hprime_form,
    make_problem,
    solve,
    verify,
)

from oracles import betti_crosscheck, dense_boundaries, kunneth, matrix_product_is_zero, oracle_link

runner = CliRunner()


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} [{desc}]: FAIL")
        raise
    print(f"criterion {num:02d} [{desc}]: PASS")


def test_criterion_01_face_vectors():
    with criterion(1, "face vectors"):
        rep = face_vector_report(corpus("boundary_simplex(2)"), RATIONALS)
        assert rep.h == rep.hprime == rep.hdoubleprime == (1, 1, 1)

        rep = face_vector_report(corpus("torus7"), RATIONALS)
        assert rep.f == (1, 7, 21, 14)
        assert rep.h == (1, 4, 10, -1)
        assert rep.hprime == (1, 4, 10, 1)
        assert rep.hdoubleprime == (1, 4, 4, 1)

        rep = face_vector_report(corpus("rp2_6"), RATIONALS)
        assert rep.h == (1, 3, 6, 0)


def test_criterion_02_identity_suite():
    with criterion(2, "identity suite"):
        for name in corpus_names():
            S = corpus(name)
            rep = identity_report(S, RATIONALS)
            assert rep.checks["f_from_link_homology"], name
            assert rep.checks["h_from_link_f"], name
            assert rep.checks["h_top_is_euler"], name
            assert rep.checks["h_prime_top_is_betti"], name
            if not buchsbaum_witnesses(S, RATIONALS):
                assert rep.checks["h_double_nonneg"], name
        for name in ("torus7", "octahedron_s2", "two_arc_circle"):
            rep = identity_report(corpus(name), RATIONALS)
            assert rep.checks["dehn_sommerville_h"], name
            assert rep.checks["dehn_sommerville_h_double"], name


def test_criterion_03_classification():
    with criterion(3, "classification"):
        cls = classify(corpus("torus7"), RATIONALS)
        assert (cls.buchsbaum, cls.cohen_macaulay, cls.homology_manifold) == (
            True, False, True,
        )
        assert cls.witnesses

        cls = classify(corpus("rp2_6"), RATIONALS)
        assert cls.cohen_macaulay
        assert not cls.witnesses

        cls = classify(corpus("rp2_6"), prime_field(2))
        assert cls.buchsbaum and not cls.cohen_macaulay
        assert cls.witnesses

        cls = classify(from_facets([{"v1", "v2", "v3"}]), RATIONALS)
        assert cls.cohen_macaulay and not cls.homology_manifold
        assert cls.witnesses


def test_criterion_04_characteristic_functions():
    with criterion(4, "characteristic functions"):
        S = corpus("boundary_simplex(2)")
        good = CharFunction(2, {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)})
        assert check(S, good, INTEGERS).passed

        bad = CharFunction(2, {"v1": (1, 0), "v2": (0, 1), "v3": (1, 2)})
        over_z = check(S, bad, INTEGERS)
        assert not over_z.passed
        assert over_z.first_failure == ("v1,v3", (1, 2))
        assert not check(S, bad, prime_field(2)).passed
        assert check(S, bad, RATIONALS).passed
        assert check(S, bad, prime_field(3)).passed

        rng = random.Random(424242)
        passes = 0
        for _ in range(100):
            assignment = {}
            for v in ("v1", "v2", "v3"):
                while True:
                    vec = (rng.randint(-3, 3), rng.randint(-3, 3))
                    if any(vec):
                        break
                g = gcd(*map(abs, vec))
                assignment[v] = (vec[0] // g, vec[1] // g)
            lam = CharFunction(2, assignment)
            if check(S, lam, INTEGERS).passed:
                passes += 1
                for p in (2, 3, 5):
                    assert check(S, lam, prime_field(p)).passed
        assert passes > 0


def test_criterion_05_cone_engine():
    with criterion(5, "cone engine"):
        prob = make_problem(CONE, corpus("torus7"), 3, RATIONALS)
        tabs = solve(prob)
        assert tabs.ea1.diagonal(3) == (1, 10, 7, 1)
        assert tabs.eainf.diagonal(3) == (1, 4, 4, 1)
        hpp = face_vector_report(corpus("torus7"), RATIONALS).hdoubleprime
        assert tabs.eainf.diagonal(3) == hpp
        big = tabs.bigraded
        assert big.totals == (1, 0, 4, 0, 10, 2, 1)
        rep = verify(prob, tabs)
        assert rep.checks["euler_conserved"]
        assert rep.notes["chi_x"] == 14 == rep.notes["top_face_count"]

        d2 = make_problem(CONE, corpus("boundary_simplex(2)"), 2, RATIONALS)
        big = solve(d2).bigraded
        assert big.totals == (1, 0, 1, 0, 1)
        h = face_vector_report(corpus("boundary_simplex(2)"), RATIONALS).h
        assert tuple(big.totals[2 * j] for j in range(3)) == h


def test_criterion_06_manifold_engine():
    with criterion(6, "manifold engine"):
        prob = make_problem(
            MANIFOLD, corpus("torus7"), 3, RATIONALS,
            betti_q=(1, 1, 0, 0), iota=(1, 1, 0, 0), orientable=True,
        )
        hp = face_vector_report(corpus("torus7"), RATIONALS).hprime
        tabs = solve(prob)
        assert tabs.ea2.diagonal(3) == (1, 10, 4, 1)
        assert tabs.ea2.diagonal(3) == tuple(hp[3 - q] for q in range(4))
        big = tabs.bigraded
        assert dict(big.cells) == {
            (0, 0): 1, (1, 0): 1, (1, 1): 7, (2, 2): 7, (2, 3): 1, (3, 3): 1,
        }
        assert big.totals == (1, 1, 7, 0, 7, 1, 1)
        assert verify(prob, tabs).checks["bigraded_duality"]


def test_criterion_07_cross_path_agreement():
    with criterion(7, "cross-path agreement"):
        checked = 0
        for name in corpus_names():
            S = corpus(name)
            links = {e.id: oracle_link(S, e.id) for e in S.elements()}
            for coeff in (RATIONALS, prime_field(2)):
                if buchsbaum_witnesses(S, coeff):
                    continue
                prob = make_problem(CONE, S, S.n, coeff)
                manifold_like = all(
                    reduced_betti(links[e.id], coeff).degree(S.n - 1 - e.rank) == 1
                    for e in S.elements()
                )
                orientable = reduced_betti(S, coeff).degree(S.n - 1) == 1
                tabs = solve(prob)
                if manifold_like and orientable:
                    assert tabs.ea1.diagonal(S.n) == e1_diagonal_hprime_form(
                        prob
                    ), (name, coeff.label)
                    checked += 1
                assert verify(prob, tabs).checks["pages_match_closed_forms"], name
        assert checked >= 6  # all sphere-like entries plus torus7, rp2_6/F2


def test_criterion_08_lambda_independence(tmp_path):
    with criterion(8, "lambda independence"):
        for name, n in (("torus7", 3), ("boundary_simplex(3)", 3)):
            S = corpus(name)
            lams = [random_q_charfn(S, n, seed=s, bound=5) for s in (1, 2, 3)]
            assert len({json.dumps(sorted(l.assignment.items())) for l in lams}) == 3
            tables = []
            for i, lam in enumerate(lams):
                lam_path = tmp_path / f"{name}-{i}.json"
                lam_path.write_text(io_mod.dumps_canonical(io_mod.emit_charfn(lam)))
                res = runner.invoke(
                    cli,
                    [
                        "quotient", "cone", "--corpus", name, "--n", str(n),
                        "--field", "q", "--charfn", str(lam_path), "--json",
                    ],
                )
                assert res.exit_code == 0, res.output
                tables.append(json.dumps(json.loads(res.output)["tables"]))
            assert tables[0] == tables[1] == tables[2]


def test_criterion_09_cylinder_rejection(tmp_path):
    with criterion(9, "cylinder rejection"):
        try:
            make_problem(
                MANIFOLD, corpus("s1xI_faceposet"), 2, RATIONALS,
                betti_q=(1, 1, 0), iota=(1, 1, 0), orientable=True,
            )
            raise AssertionError("cylinder bundle was accepted")
        except NotBuchsbaum as err:
            assert {w[0] for w in err.witnesses} == {"F1", "F2"}

        bundle = {
            "format": "manifold-v1",
            "poset": io_mod.emit_poset(corpus("s1xI_faceposet")),
            "n": 2,
            "field": "q",
            "bettiQ": [1, 1, 0],
            "iota": [1, 1, 0],
            "orientable": True,
            "charfn": None,
        }
        path = tmp_path / "s1xI-bundle.json"
        path.write_text(json.dumps(bundle))
        res = runner.invoke(cli, ["quotient", "manifold", str(path)])
        assert res.exit_code != 0
        assert "NotBuchsbaum" in res.output

        # the documented profiles are Kunneth products, not engine output
        assert CYLINDER_QUOTIENT_PROFILES["independent circles"] == kunneth(
            (1, 1), (1, 0, 0, 1)
        )
        assert CYLINDER_QUOTIENT_PROFILES["equal circles"] == kunneth(
            (1, 1), (1, 1), (1, 0, 1)
        )
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "(1, 1, 0, 1, 1)" in text
        assert "(1, 2, 2, 2, 1)" in text


def test_criterion_10_homology_backend():
    with criterion(10, "homology backend"):
        coeffs = (INTEGERS, RATIONALS, prime_field(2), prime_field(3))
        for name in corpus_names():
            S = corpus(name)
            for coeff in coeffs:
                assert betti_crosscheck(S, coeff), (name, coeff.label)
            _, d = dense_boundaries(S)
            for k in range(1, len(d)):
                assert matrix_product_is_zero(d[k - 1], d[k]), name

        bv = reduced_betti(corpus("torus7"), INTEGERS)
        assert bv.reduced[1:] == (0, 2, 1)
        assert all(t == () for t in bv.torsion)

        bv = reduced_betti(corpus("rp2_6"), INTEGERS)
        assert bv.torsion_in(1) == (2,)
        assert bv.reduced == (0, 0, 0, 0)
