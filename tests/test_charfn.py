import random
from itertools import combinations
from math import gcd

import pytest

from sposet.charfn import CharFunction, check, random_q_charfn
from sposet.errors import (
    BudgetExhausted,
    InvalidCharFn,
    MissingVertexAssignment,
    NonPrimitiveVector,
    WrongVectorLength,
)
from sposet.homology import INTEGERS, RATIONALS, prime_field
from sposet.poset import from_facets

CP2 = {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)}
DET2 = {"v1": (1, 0), "v2": (0, 1), "v3": (1, 2)}


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

    def test_missing_vertex(self, bd_triangle):
        lam = CharFunction(2, {"v1": (1, 0), "v2": (0, 1)})
        with pytest.raises(MissingVertexAssignment):
            check(bd_triangle, lam, INTEGERS)


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

    def test_budget_exhausted_reports_simplex(self):
        # K5 needs five pairwise independent directions in the plane,
        # but entries in {-1, 0, 1} only give four, so sampling must fail
        verts = [f"v{i}" for i in range(1, 6)]
        k5 = from_facets(combinations(verts, 2), name="k5")
        with pytest.raises(BudgetExhausted) as err:
            random_q_charfn(k5, 2, seed=3, bound=1, budget=300)
        assert err.value.failing_simplex in {e.id for e in k5.elements()}
        assert err.value.attempts == 300
