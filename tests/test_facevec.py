import os
import subprocess
import sys
from dataclasses import replace

import pytest

import sposet
from sposet import facevec
from sposet.errors import NonFieldCoefficients, NotPure
from sposet.facevec import face_vector_report, identity_report
from sposet.homology import INTEGERS, RATIONALS, prime_field, reduced_betti
from sposet.poset import SimplexElem, barycentric, from_face_lattice, from_facets

from oracles import f_from_link_polynomial, h_from_f_polynomial, h_from_link_polynomial

FIELDS = (RATIONALS, prime_field(2), prime_field(3))


def _with_subdivisions(corpus_posets):
    for S in corpus_posets.values():
        yield S
        yield barycentric(S)


class TestFH:
    def test_boundary_triangle(self, bd_triangle):
        rep = face_vector_report(bd_triangle, RATIONALS)
        assert (rep.f, rep.h) == ((1, 3, 3), (1, 1, 1))
        assert (rep.chi, rep.chitilde) == (0, -1)

    def test_torus7(self, torus7):
        rep = face_vector_report(torus7, RATIONALS)
        assert rep.f == (1, 7, 21, 14)
        assert rep.h == (1, 4, 10, -1)
        assert rep.chi == 0
        assert rep.h[3] == (-1) ** 2 * rep.chitilde

    def test_rp2(self, corpus_posets):
        rep = face_vector_report(corpus_posets["rp2_6"], RATIONALS)
        assert (rep.f, rep.h) == ((1, 6, 15, 10), (1, 3, 6, 0))
        assert rep.chitilde == 0

    def test_matches_polynomial_oracle(self, corpus_posets):
        for S in _with_subdivisions(corpus_posets):
            rep = face_vector_report(S, RATIONALS)
            assert rep.h == h_from_f_polynomial(rep.f, S.n), S.name

    def test_h_sum_counts_facets(self, corpus_posets):
        for S in corpus_posets.values():
            rep = face_vector_report(S, RATIONALS)
            assert sum(rep.h) == rep.f[S.n]
            assert rep.h[0] == 1

    def test_h_top_is_reduced_euler(self, corpus_posets):
        for S in corpus_posets.values():
            rep = face_vector_report(S, RATIONALS)
            assert rep.h[S.n] == (-1) ** (S.n - 1) * rep.chitilde

    def test_not_pure(self):
        elems = [
            SimplexElem("w", ("w",), ()),
            SimplexElem("a", ("a",), ()),
            SimplexElem("b", ("b",), ()),
            SimplexElem("e", ("a", "b"), ("b", "a")),
        ]
        S = from_face_lattice(elems)
        for _ in range(2):
            with pytest.raises(NotPure):
                face_vector_report(S, RATIONALS)


class TestFt:
    def test_torus7_homology_manifold_gives_f(self, torus7):
        assert face_vector_report(torus7, RATIONALS).ft == (7, 21, 14)

    def test_boundary_triangle(self, bd_triangle):
        # vertex links are two points, edge links are empty
        assert face_vector_report(bd_triangle, RATIONALS).ft == (3, 3)

    def test_full_triangle_has_acyclic_vertex_links(self, full_triangle):
        assert face_vector_report(full_triangle, RATIONALS).ft == (0, 0, 1)

    def test_field_required(self, torus7):
        with pytest.raises(NonFieldCoefficients, match="^ft numbers need field coefficients$"):
            face_vector_report(torus7, INTEGERS)


class TestHPrime:
    def test_boundary_triangle(self, bd_triangle):
        rep = face_vector_report(bd_triangle, RATIONALS)
        assert rep.hprime == (1, 1, 1) and rep.hdoubleprime == (1, 1, 1)
        assert rep.hprime[2] == reduced_betti(bd_triangle, RATIONALS).degree(1)

    def test_torus7(self, torus7):
        rep = face_vector_report(torus7, RATIONALS)
        assert rep.hprime == (1, 4, 10, 1)
        assert rep.hdoubleprime == (1, 4, 4, 1)

    def test_rp2_over_q_no_corrections(self, corpus_posets):
        S = corpus_posets["rp2_6"]
        rep = face_vector_report(S, RATIONALS)
        assert rep.hprime == rep.hdoubleprime == (1, 3, 6, 0)

    def test_integers_refused(self, torus7):
        with pytest.raises(NonFieldCoefficients):
            face_vector_report(torus7, INTEGERS)

    def test_h_prime_top_is_top_betti(self, corpus_posets):
        for S in corpus_posets.values():
            for coeff in FIELDS:
                hp = face_vector_report(S, coeff).hprime
                assert hp[S.n] == reduced_betti(S, coeff).degree(S.n - 1)


class TestIdentityReport:
    def test_torus7_all_checks(self, torus7):
        rep = identity_report(torus7, RATIONALS)
        assert rep.all_passed and not rep.skipped
        assert rep.checks["dehn_sommerville_h"]
        # spot value at i = 0: h_0 = h_3 + C(3,0) (1 - (-1)^3 - chi)
        rep = face_vector_report(torus7, RATIONALS)
        assert rep.h[0] == rep.h[3] + (1 - (-1) ** 3 - rep.chi)

    def test_boundary_triangle(self, bd_triangle):
        rep = identity_report(bd_triangle, RATIONALS)
        assert rep.all_passed and not rep.skipped

    def test_full_triangle_skips_dehn_sommerville(self, full_triangle):
        rep = identity_report(full_triangle, RATIONALS)
        assert rep.all_passed
        assert "dehn_sommerville_h" in rep.skipped
        assert rep.checks["f_from_link_homology"]
        assert rep.checks["h_from_link_f"]

    def test_full_corpus_unconditional_identities(self, corpus_posets):
        for name, S in corpus_posets.items():
            for coeff in FIELDS:
                rep = identity_report(S, coeff)
                assert rep.all_passed, (name, coeff.label, rep.checks)

    def test_dehn_sommerville_on_manifolds(self, corpus_posets):
        for name in ("torus7", "octahedron_s2", "two_arc_circle"):
            rep = identity_report(corpus_posets[name], RATIONALS)
            assert rep.checks["dehn_sommerville_h"], name
            assert rep.checks["dehn_sommerville_h_double"], name

    def test_rp2_h_double_symmetry_only_over_f2(self, corpus_posets):
        S = corpus_posets["rp2_6"]
        assert "dehn_sommerville_h_double" in identity_report(S, RATIONALS).skipped
        assert identity_report(S, prime_field(2)).checks[
            "dehn_sommerville_h_double"
        ]

    def test_link_identities_match_polynomial_oracle(self, corpus_posets):
        for S in _with_subdivisions(corpus_posets):
            for coeff in (RATIONALS, prime_field(2)):
                rep = identity_report(S, coeff)
                n, ft, chi = S.n, rep.report.ft, rep.report.chi
                f_ok = rep.report.f == f_from_link_polynomial(ft, n, chi)
                h_ok = rep.report.h == h_from_link_polynomial(ft, n, chi)
                assert f_ok and h_ok, (S.name, coeff.label)
                assert rep.checks["f_from_link_homology"] is f_ok
                assert rep.checks["h_from_link_f"] is h_ok

    def test_h_double_nonneg_on_buchsbaum_corpus(self, corpus_posets):
        for name, S in corpus_posets.items():
            rep = identity_report(S, RATIONALS)
            assert rep.checks.get("h_double_nonneg", True), name
            assert all(x >= 0 for x in rep.report.hdoubleprime), name


    @pytest.mark.parametrize("facets", [
        [("a", "b", "c"), ("a", "d", "e")],
        [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
         ("a", "e", "f"), ("a", "e", "g"), ("a", "f", "g"), ("e", "f", "g")],
    ], ids=["two_triangles", "two_tetrahedron_boundaries"])
    def test_link_identities_skipped_off_buchsbaum(self, facets):
        # pure, but wedged at "a", whose link has two components: ft counts
        # top link homology alone, so both link identities miss its H~_0
        S = from_facets(facets)
        for coeff in (RATIONALS, prime_field(2)):
            rep = identity_report(S, coeff)
            n, ft, chi = S.n, rep.report.ft, rep.report.chi
            assert rep.report.f != f_from_link_polynomial(ft, n, chi)
            assert rep.report.h != h_from_link_polynomial(ft, n, chi)
            for key in ("f_from_link_homology", "h_from_link_f", "h_double_nonneg"):
                assert key not in rep.checks
                assert rep.skipped[key] == "not Buchsbaum over this field"
            assert rep.all_passed, (coeff.label, rep.checks)


class TestReportAssembly:
    def test_report_fields(self, torus7):
        rep = face_vector_report(torus7, RATIONALS)
        assert rep.n == 3
        assert rep.coeff == RATIONALS
        assert rep.chi == rep.chitilde + 1


class TestLinkIdentitiesCanFail:
    """One ft entry raised by one must break both link identities."""

    def test_bumped_ft_fails_both(self, corpus_posets, monkeypatch):
        for name in ("torus7", "rp2_6", "two_arc_circle", "boundary_simplex(3)"):
            S = corpus_posets[name]
            good = face_vector_report(S, RATIONALS)
            for k in range(S.n):
                ft = good.ft[:k] + (good.ft[k] + 1,) + good.ft[k + 1 :]
                bumped = replace(good, ft=ft)
                monkeypatch.setattr(facevec, "face_vector_report", lambda S, coeff, r=bumped: r)
                rep = identity_report(S, RATIONALS)
                assert rep.report.ft == ft
                assert rep.report.f != f_from_link_polynomial(ft, S.n, rep.report.chi)
                assert rep.report.h != h_from_link_polynomial(ft, S.n, rep.report.chi)
                assert not rep.checks["f_from_link_homology"], (name, k)
                assert not rep.checks["h_from_link_f"], (name, k)
                assert rep.checks["h_top_is_euler"] and rep.checks["h_prime_top_is_betti"]


# exits with the number of corrupted cases that passed; 99 if asserts are on
UNDER_O = """
import sys
from dataclasses import replace
from sposet import corpus, facevec
from sposet.homology import RATIONALS

S = corpus("torus7")
good = facevec.face_vector_report(S, RATIONALS)
missed = 0
for k in range(S.n):
    ft = good.ft[:k] + (good.ft[k] + 1,) + good.ft[k + 1:]
    facevec.face_vector_report = lambda S, coeff, r=replace(good, ft=ft): r
    checks = facevec.identity_report(S, RATIONALS).checks
    for name in ("f_from_link_homology", "h_from_link_f"):
        if checks[name]:
            print(name, "held with ft_%d raised" % k)
            missed += 1
sys.exit(missed if sys.flags.optimize else 99)
"""


def test_bumped_ft_fails_under_python_O():
    src = os.path.dirname(os.path.dirname(sposet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-O", "-c", UNDER_O], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout + run.stderr
