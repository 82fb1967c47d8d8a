import ast
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sposet
from sposet import homology
from sposet.classify import buchsbaum_witnesses
from sposet.homology import (
    INTEGERS,
    RATIONALS,
    Coefficients,
    parse_coefficients,
    prime_field,
    reduced_betti,
    smith_normal_form,
)
from sposet.corpus import corpus, corpus_names
from sposet.poset import SimplexElem, SimplicialPoset, barycentric, from_facets
from sposet.errors import InternalError, InvalidArgument

from oracles import (
    betti_crosscheck,
    dense_betti,
    dense_boundaries,
    euler_characteristic,
    interval_ids,
    matrix_product_is_zero,
    minor_gcd_invariant_factors,
    oracle_link,
    rank_mod_p,
    rank_over_q,
)

ALL_COEFFS = (INTEGERS, RATIONALS, prime_field(2), prime_field(3))


class TestCoefficients:
    def test_labels_roundtrip(self):
        for label in ("z", "q", "fp:2", "fp:7"):
            assert parse_coefficients(label).label == label

    def test_prime_checked(self):
        with pytest.raises(ValueError):
            prime_field(4)
        with pytest.raises(ValueError):
            prime_field(1)

    def test_bad_label(self):
        for label in ("fp:six", "fp:x", "w", "fp:1_3", "fp:\u0663", "fp:+3", "fp: 3"):
            with pytest.raises(InvalidArgument, match="bad coefficient label"):
                parse_coefficients(label)

    def test_large_prime_parses_fast(self):
        start = time.perf_counter()
        assert parse_coefficients("fp:2305843009213693951").p == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "p",
        [561, 2**61 + 1, 3215031751, 3825123056546413051, 2**64, 2**64 + 13],
        ids=["carmichael", "mersenne61_plus2", "spsp_2357", "spsp_to_23",
             "two_64", "prime_above_two_64"],
    )
    def test_refused(self, p):
        with pytest.raises(InvalidArgument, match="bad coefficient label"):
            parse_coefficients(f"fp:{p}")

    def test_integers_take_no_p(self):
        with pytest.raises(InvalidArgument, match="p only makes sense for prime fields"):
            Coefficients("integers", 5)

    def test_primality_agrees_with_trial_division(self):
        sieve = [False, False] + [True] * (20_000 - 2)
        for p in range(2, 142):
            if sieve[p]:
                sieve[p * p::p] = [False] * len(sieve[p * p::p])
        assert [p for p in range(20_000) if homology._is_prime(p)] == [
            p for p, prime in enumerate(sieve) if prime]
        # the largest prime below 2**64, and two strong pseudoprimes to
        # the first four and the first nine prime bases
        assert homology._is_prime(2**64 - 59)
        assert not homology._is_prime(3215031751)
        assert not homology._is_prime(3825123056546413051)

    def test_bound_named_in_message(self):
        with pytest.raises(InvalidArgument, match=r"2\*\*64"):
            parse_coefficients(f"fp:{2**64 + 13}")


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unimodular(rng, k):
    # a product of random elementary row operations and row swaps
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.randint(-3, 3)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _columns(matrix, row_ids):
    # the sparse columns (row id -> nonzero entry) of a dense matrix
    return [{r: v for r, v in zip(row_ids, column) if v} for column in zip(*matrix)]


# row ids start with None, the key of the augmentation row
ROW_IDS = (None, *(f"r{i}" for i in range(12)))


def _check_both(mat):
    # the dense Smith form and the sparse unit-pivot elimination, and the
    # latter's pivot rows
    expected = minor_gcd_invariant_factors(mat)
    sparse, pivot_rows = homology._unit_smith_form(_columns(mat, ROW_IDS))
    for got in (smith_normal_form(mat), sparse):
        assert got.factors == expected, mat
        assert got.rank == len(expected)
    # Clearing rests on this: the matrix at its pivot rows maps the columns
    # onto every integer vector there, so modulo the columns each pivot
    # row is a combination of the other rows.  Then that part has only
    # unit invariant factors, one per pivot, and the whole has as many.
    units = (1,) * len(pivot_rows)
    at_pivots = [mat[ROW_IDS.index(r)] for r in pivot_rows]
    assert len(set(pivot_rows)) == len(units), mat
    assert smith_normal_form(at_pivots).factors == units, mat
    assert sparse.factors[:len(units)] == units, mat


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)

    def test_diagonal_kept(self):
        assert smith_normal_form([[2, 0], [0, 4]]).factors == (2, 4)

    def test_coprime_diagonal_merges(self):
        # gcd of 1x1 minors is 1, of the 2x2 minor is 6
        assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)

    def test_zero_and_empty(self):
        assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
        assert smith_normal_form([]).rank == 0

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(20240601)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            _check_both([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        # U . diag(1, 2, 6, 0) . V with U, V unimodular: the unit pivot
        # skips the divisibility scan, the 2 and 6 need its fix-up
        for _ in range(30):
            m = rng.randint(4, 6)
            n = rng.randint(4, 6)
            diag = [[0] * n for _ in range(m)]
            for i, d in enumerate((1, 2, 6, 0)):
                diag[i][i] = d
            mat = _matmul(_matmul(_unimodular(rng, m), diag), _unimodular(rng, n))
            assert minor_gcd_invariant_factors(mat) == (1, 2, 6)
            _check_both(mat)

    def test_rank_matches_gauss_oracles(self):
        rng = random.Random(77)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            snf = smith_normal_form(mat)
            assert snf.rank == rank_over_q(mat)
            for p in (2, 3, 5):
                assert snf.rank_over(prime_field(p)) == rank_mod_p(mat, p)

    def test_divisibility_chain(self):
        rng = random.Random(5)
        for _ in range(30):
            mat = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
            fac = smith_normal_form(mat).factors
            assert all(b % a == 0 for a, b in zip(fac, fac[1:]))


class TestUnitSmithForm:
    def test_sparse_against_minor_gcd_oracle(self):
        rng = random.Random(20260901)
        for entries in ((-1, 1), (-2, 2)):
            for _ in range(80):
                m, n = rng.randint(1, 5), rng.randint(1, 5)
                _check_both([[rng.randint(*entries) * (rng.random() < 0.6)
                              for _ in range(n)] for _ in range(m)])

    def test_non_unit_columns_and_zero_lines(self):
        rng = random.Random(8)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mat = [[rng.choice((-4, -2, 0, 0, 2, 3, 6)) for _ in range(n)] for _ in range(m)]
            # a unit column now and then, so cores mix with unit pivots
            if rng.random() < 0.5:
                j = rng.randrange(n)
                for row in mat:
                    row[j] = rng.choice((-1, 0, 1))
            mat.insert(rng.randint(0, m), [0] * n)
            for row in mat:
                row.insert(n // 2, 0)
            _check_both(mat)

    def test_empty(self):
        for columns in ([], [{}, {}]):
            snf, pivot_rows = homology._unit_smith_form(columns)
            assert snf == homology.SnfResult(()) and list(pivot_rows) == []

    def test_pivot_rows_in_the_order_found(self):
        # the first column's unit at a is a pivot; the second, reduced
        # against it, is -2 at b and goes with the third to the dense core,
        # whose pivots are not reported
        columns = [{"a": 1, "b": 1}, {"a": 1, "b": -1}, {"b": 2, "c": 2}]
        snf, pivot_rows = homology._unit_smith_form(columns)
        assert snf.factors == (1, 2, 2) and list(pivot_rows) == ["a"]
        # a unit after a non-unit entry, and one that only reduction makes:
        # the last column is 4 - 3 = 1 at c once cleared at a
        snf, pivot_rows = homology._unit_smith_form(
            [{"c": 3, "b": -1}, {"a": 1, "b": 1}, {"a": 1, "c": 4}])
        assert snf.factors == (1, 1, 1) and list(pivot_rows) == ["b", "a", "c"]


def _cone(S, name):
    return from_facets([(*f.vertices, "apex") for f in S.by_rank(S.n)], name=name)


def _suspension(S, poles, name):
    return from_facets([(*f.vertices, pole) for f in S.by_rank(S.n) for pole in poles],
                       name=name)


def _rp2_suspensions():
    # n = 4 and n = 5 with H_2 = Z/2 and H_3 = Z/2: up-sets with two or
    # three kernel levels, where clearing acts, and torsion among them
    once = _suspension(corpus("rp2_6"), ("north", "south"), "susp(rp2_6)")
    return [once, _suspension(once, ("east", "west"), "susp(susp(rp2_6))")]


def _assert_matches_dense_route(S):
    # every up-set of S, the whole poset included, over all four rings:
    # through the link table, whose rows of codimension <= 2 never reach
    # reduced_betti, and through reduced_betti; and the Buchsbaum witnesses
    # at three ranks against those read off the dense rows
    for coeff in ALL_COEFFS:
        table = homology._link_table(S, coeff)
        dense = {root: dense_betti(S, coeff, root) for root in (None, *(e.id for e in S))}
        assert table == tuple((e.id, e.rank, *dense[e.id]) for e in S), (S.name, coeff.label)
        for root, want in dense.items():
            bv = reduced_betti(S, coeff, root=root)
            assert (bv.reduced, bv.torsion) == want, (S.name, root, coeff.label)
        for n in (S.n - 1, S.n, S.n + 1):
            want = []
            for e in S:
                reduced, torsion = dense[e.id]
                for deg, b in enumerate(reduced, start=-1):
                    if deg != n - 1 - e.rank and (b or torsion and torsion[deg + 1]):
                        want.append((e.id, deg, b))
            assert buchsbaum_witnesses(S, coeff, n) == tuple(want), (S.name, n, coeff.label)


class TestAgainstDenseRoute:
    def test_every_root_matches_dense_smith_forms(self):
        # the dense boundary matrices and their Smith forms, which the
        # closed forms and the sparse elimination replaced, as the reference
        posets = [corpus(name) for name in corpus_names()] + [
            barycentric(corpus("torus7")),
            _cone(corpus("rp2_6"), "cone(rp2_6)"),
            # n = 5: its vertices and edges take the kernel route
            from_facets(_tetrahedron_boundary("abcdef"), name="boundary_simplex(5)"),
            *_rp2_suspensions(),
        ]
        for S in posets:
            _assert_matches_dense_route(S)

    def test_suspensions_keep_their_torsion(self):
        once, twice = _rp2_suspensions()
        assert reduced_betti(once, INTEGERS).torsion == ((), (), (), (2,), ())
        assert reduced_betti(twice, INTEGERS).torsion == ((), (), (), (), (2,), ())
        assert reduced_betti(twice, prime_field(2)).reduced == (0, 0, 0, 0, 1, 1)

    def test_over_reported_pivot_rows_are_caught(self, monkeypatch):
        # a kernel that names every row of its matrix a pivot row clears
        # faces that are no boundary; the dense route must notice
        real = homology._unit_smith_form

        def over_reporting(columns):
            rows = dict.fromkeys(r for col in columns for r in col)
            return real(columns)[0], rows.keys()

        monkeypatch.setattr(homology, "_unit_smith_form", over_reporting)
        caught = []
        for S in _rp2_suspensions():
            try:
                _assert_matches_dense_route(S)
            except AssertionError:
                caught.append(S.name)
        assert caught

    def test_pivot_order_does_not_depend_on_str_hashing(self):
        # the dense-core inputs, the kernel's pivot rows and their counts
        # on the suspension of rp2_6, under two hash seeds
        script = """
import sys
from sposet import homology
from sposet.corpus import corpus
from sposet.homology import INTEGERS, prime_field
from sposet.poset import from_facets
seen = []
real_dense, real_kernel = homology.smith_normal_form, homology._unit_smith_form

def dense(matrix):
    seen.append(("core", matrix))
    return real_dense(matrix)

def kernel(columns):
    snf, rows = real_kernel(columns)
    seen.append(("pivots", list(rows)))
    return snf, rows

homology.smith_normal_form, homology._unit_smith_form = dense, kernel
S = from_facets([(*f.vertices, p) for f in corpus("rp2_6").by_rank(3) for p in "NS"])
for coeff in (INTEGERS, prime_field(2)):
    homology._link_table(S, coeff)
    homology.reduced_betti(S, coeff)
print(repr(seen))
"""
        src = os.path.dirname(os.path.dirname(sposet.__file__))
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH"))))}
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert "'core'" in outs[0] and "'pivots'" in outs[0]

    def test_reference_reads_neither_incidence_nor_cover_map(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dense reference read the sparse route's complex")

        monkeypatch.setattr(homology, "_incidence", refuse)
        monkeypatch.setattr(SimplicialPoset, "_cofaces", refuse)
        S = corpus("rp2_6")
        assert dense_betti(S, INTEGERS) == ((0, 0, 0, 0), ((), (), (2,), ()))
        assert dense_betti(S, prime_field(2), root="v1") == ((0, 0, 1), ())

    def test_torsion_free_ladder_sends_nothing_to_dense(self, monkeypatch):
        cores = []
        real = homology.smith_normal_form

        def recording(matrix):
            cores.append(matrix)
            return real(matrix)

        monkeypatch.setattr(homology, "smith_normal_form", recording)
        # the torsion-free rungs of the benchmark's ladder
        t7 = corpus("torus7")
        ladder = [
            t7,
            barycentric(t7),
            from_facets([[f"v{j}" for j in range(7) if j != i] for i in range(7)]),
            barycentric(barycentric(corpus("boundary_simplex(3)"))),
            barycentric(barycentric(t7)),
        ]
        for S in ladder:
            for root in (None, *(e.id for e in S.elements())):
                reduced_betti(S, INTEGERS, root=root)
            assert cores == [], S.name
        # torsion does reach the dense core
        assert reduced_betti(corpus("rp2_6"), INTEGERS).torsion_in(1) == (2,)
        assert cores


def _tetrahedron_boundary(vs):
    return [[v for v in vs if v != u] for u in vs]


class TestClosedForm:
    """The two lowest boundary ranks of every up-set come from its covers
    and their covers; each link graph kind they can meet, against the
    dense route."""

    @pytest.mark.parametrize("name", ["two_arc_circle", "triangle_2gon"])
    def test_multiple_edges(self, name):
        # faces two ranks up over the same two covers
        _assert_matches_dense_route(corpus(name))

    def test_vertex_link_with_two_components(self):
        S = from_facets([("a", "b", "c"), ("a", "d", "e")], name="bowtie")
        assert reduced_betti(S, RATIONALS, root="a").reduced == (0, 1, 0)
        _assert_matches_dense_route(S)

    def test_link_with_cycles_in_two_components(self):
        S = from_facets(_tetrahedron_boundary("abcd") + _tetrahedron_boundary("aefg"),
                        name="two_spheres_at_a")
        # lk a: two triangle boundaries, so E - V + c = 6 - 6 + 2
        assert reduced_betti(S, RATIONALS, root="a").reduced == (0, 1, 2)
        _assert_matches_dense_route(S)

    def test_non_pure_with_empty_links_below_top_rank(self):
        S = from_facets([("a", "b", "c"), ("c", "d"), ("e",)], name="non_pure")
        assert reduced_betti(S, RATIONALS, root="e").reduced == (1, 0, 0)
        assert reduced_betti(S, RATIONALS, root="c,d").reduced == (1, 0)
        assert reduced_betti(S, RATIONALS).reduced == (0, 1, 0, 0)
        _assert_matches_dense_route(S)

    def test_cone_over_rp2_keeps_torsion_above_level_two(self):
        S = _cone(corpus("rp2_6"), "cone(rp2_6)")
        lk = reduced_betti(S, INTEGERS, root="apex")
        assert lk.reduced == (0, 0, 0, 0) and lk.torsion_in(1) == (2,)
        _assert_matches_dense_route(S)

    def test_link_table_reads_only_deeper_faces_through_up_sets(self, monkeypatch):
        roots = []
        real = homology._link_row

        def recording(S, coeff, root):
            roots.append(root)
            return real(S, coeff, root)

        monkeypatch.setattr(homology, "_link_row", recording)
        # n = 5: the vertices and edges lie three ranks down or more
        S = from_facets(_tetrahedron_boundary("abcdef"))
        homology._link_table(S, RATIONALS)
        assert roots == [e.id for e in S if e.rank <= 2]


class TestInternalErrors:
    def test_corrupted_complex_raises(self):
        # the boundary of every face is checked on the whole poset, so a
        # triangle whose facet list is rotated breaks d.d = 0 for any root
        S = corpus("boundary_simplex(3)")
        t = S.by_rank(3)[0]
        elems = {e.id: e for e in S.elements()}
        elems[t.id] = SimplexElem(t.id, t.vertices, t.facets[1:] + t.facets[:1])
        for root in (None, t.id, t.vertices[0]):
            with pytest.raises(InternalError):
                reduced_betti(SimplicialPoset(elems, S.n), RATIONALS, root=root)

    def test_broken_factor_chain_raises(self, monkeypatch):
        monkeypatch.setattr(homology, "_invariant_factors", lambda A: [2, 3])
        with pytest.raises(InternalError):
            smith_normal_form(((2, 0), (0, 3)))


# Corrupted inputs that must each raise InternalError with the
# interpreter's asserts stripped; the exit code counts those that did not.
UNDER_O = """
import sys
from sposet import homology
from sposet.classify import buchsbaum_witnesses, classify
from sposet.errors import InternalError
from sposet.corpus import corpus
from sposet.homology import INTEGERS, RATIONALS, reduced_betti, smith_normal_form
from sposet.poset import SimplexElem, SimplicialPoset

def misordered():
    # a fresh triangle listing its facets out of order, unseen by any validation
    elems = [SimplexElem(v, (v,), ()) for v in "abc"] + [
        SimplexElem("ab", ("a", "b"), ("b", "a")),
        SimplexElem("ac", ("a", "c"), ("c", "a")),
        SimplexElem("bc", ("b", "c"), ("c", "b")),
        SimplexElem("abc", ("a", "b", "c"), ("ac", "bc", "ab")),
    ]
    return SimplicialPoset({e.id: e for e in elems}, 3)

def bad_factors():
    homology._invariant_factors = lambda rows: [2, 3]
    smith_normal_form(((2, 0), (0, 3)))

def bad_core():
    # rp2_6 has torsion, so its core reaches the dense Smith form
    homology._invariant_factors = lambda rows: [2, 3]
    reduced_betti(corpus("rp2_6"), INTEGERS)

def bad_link(root):
    # the first complex asked of the poset is the link homology of root
    reduced_betti(misordered(), RATIONALS, root=root)

def bad_table(read):
    # the first complex asked of the poset is the link table, where every
    # face of the triangle has codimension <= 2 and reads a closed form
    read(misordered(), RATIONALS)

ROOTS = ("a", "b", "c", "ab", "ac", "bc", "abc")
cases = [("bad_factors", bad_factors), ("bad_core", bad_core)] + [
    (f"bad_link({root})", lambda root=root: bad_link(root)) for root in (None, *ROOTS)] + [
    (f"bad_link({read.__name__})", lambda read=read: bad_table(read))
    for read in (classify, buchsbaum_witnesses)]
missed = 0
for name, case in cases:
    try:
        case()
    except InternalError:
        continue
    print(name, "did not raise")
    missed += 1
sys.exit(missed if sys.flags.optimize else 99)
"""


def test_invariants_hold_under_python_O():
    src = os.path.dirname(os.path.dirname(sposet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-O", "-c", UNDER_O], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_library_has_no_assert_statements():
    # invariants must hold under python -O, which strips every assert
    package = Path(sposet.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


class TestBoundaryMatrices:
    """The dense reference complex itself: known entries, d.d = 0, unit
    entries, and every restricted complex a submatrix of the whole."""

    def test_boundary_triangle_incidence(self, bd_triangle):
        gens, d = dense_boundaries(bd_triangle)
        assert gens[0] == ("v1", "v2", "v3")
        assert gens[1] == ("v1,v2", "v1,v3", "v2,v3")
        assert d[1] == (
            (-1, -1, 0),
            (1, 0, -1),
            (0, 1, 1),
        )
        assert smith_normal_form(d[1]).rank == 2

    def test_single_vertex_has_no_higher_boundaries(self):
        S = from_facets([{"v"}])
        gens, d = dense_boundaries(S)
        assert len(gens) == 1
        assert d[0] == ((1,),)

    def test_two_arc_circle_columns(self, corpus_posets):
        _, d = dense_boundaries(corpus_posets["two_arc_circle"])
        cols = list(zip(*d[1]))
        assert cols[0] == cols[1]
        assert sorted(cols[0]) == [-1, 1]
        assert smith_normal_form(d[1]).rank == 1

    def test_boundary_squared_zero(self, corpus_posets):
        for S in corpus_posets.values():
            _, d = dense_boundaries(S)
            for k in range(1, len(d)):
                assert matrix_product_is_zero(d[k - 1], d[k])

    def test_restrictions_are_submatrices_on_up_sets(self):
        # d.d = 0 is checked on the whole complex only, so each restricted
        # complex must be exactly its submatrix on the faces >= the root
        rp2 = corpus("rp2_6")
        posets = [corpus(name) for name in corpus_names()] + [
            barycentric(corpus("torus7")),
            from_facets([(*f.vertices, "apex") for f in rp2.by_rank(3)], name="cone(rp2_6)"),
        ]
        for S in posets:
            whole_gens, whole = dense_boundaries(S)
            index = [{g: i for i, g in enumerate(level)} for level in whole_gens]
            down = {e.id: interval_ids(S, e.id) for e in S.elements()}
            for root in S.elements():
                gens, boundaries = dense_boundaries(S, root=root.id)
                up_set = {eid for eid, ids in down.items() if root.id in ids} - {root.id}
                assert {g for level in gens for g in level} == up_set
                lower = ((root.id,), *gens)
                for k, matrix in enumerate(boundaries):
                    d = root.rank + k
                    rows = [index[d - 1][g] for g in lower[k]]
                    cols = [index[d][g] for g in gens[k]]
                    full = whole[d]
                    assert matrix == tuple(tuple(full[i][j] for j in cols) for i in rows)
                for k in range(1, len(boundaries)):
                    assert matrix_product_is_zero(boundaries[k - 1], boundaries[k])

    def test_entries_in_unit_range(self, corpus_posets):
        for S in corpus_posets.values():
            _, d = dense_boundaries(S)
            for k in range(len(d)):
                assert all(v in (-1, 0, 1) for row in d[k] for v in row)


class TestReducedBetti:
    def test_boundary_triangle_is_circle(self, bd_triangle):
        assert reduced_betti(bd_triangle, RATIONALS).reduced == (0, 0, 1)

    def test_torus7_over_q(self, torus7):
        assert reduced_betti(torus7, RATIONALS).reduced == (0, 0, 2, 1)

    def test_torus7_over_z_torsion_free(self, torus7):
        bv = reduced_betti(torus7, INTEGERS)
        assert bv.reduced == (0, 0, 2, 1)
        assert all(t == () for t in bv.torsion)

    def test_rp2_field_dependence(self, corpus_posets):
        rp2 = corpus_posets["rp2_6"]
        over_q = reduced_betti(rp2, RATIONALS)
        over_f2 = reduced_betti(rp2, prime_field(2))
        assert over_q.reduced == (0, 0, 0, 0)
        assert over_f2.degree(1) == 1 and over_f2.degree(2) == 1

    def test_rp2_integral_torsion(self, corpus_posets):
        bv = reduced_betti(corpus_posets["rp2_6"], INTEGERS)
        assert bv.reduced == (0, 0, 0, 0)
        assert bv.torsion_in(1) == (2,)
        assert bv.torsion_in(0) == () and bv.torsion_in(2) == ()

    def test_empty_link_has_unit_in_degree_minus_one(self, bd_triangle):
        empty = oracle_link(bd_triangle, "v1,v2")
        assert reduced_betti(empty, RATIONALS).degree(-1) == 1

    def test_disconnected_counts_components(self, corpus_posets):
        bv = reduced_betti(corpus_posets["s1xI_faceposet"], RATIONALS)
        assert bv.degree(-1) == 0 and bv.degree(0) == 1

    def test_rings_share_smith_forms(self, monkeypatch):
        calls = []
        real = homology._unit_smith_form

        def counting(columns):
            calls.append(sorted(tuple(sorted(col.items())) for col in columns))
            return real(columns)

        monkeypatch.setattr(homology, "_unit_smith_form", counting)
        rp2 = corpus("rp2_6")
        for coeff in ALL_COEFFS:
            reduced_betti(rp2, coeff)
        # the two lowest matrices are closed forms, so one elimination, on
        # the columns of the triangles onto the edges in any order, serves
        # all four rings
        gens, d = dense_boundaries(rp2)
        assert calls == [sorted(tuple(sorted(col.items())) for col in _columns(d[2], gens[1]))]
        assert reduced_betti(rp2, INTEGERS).torsion_in(1) == (2,)
        assert reduced_betti(rp2, prime_field(2)).degree(2) == 1

    def test_iterated_subdivisions_keep_their_type(self):
        # whole-poset homology of 1000-plus faces, all by sparse elimination
        for name, over_z, over_f2 in (
            ("rp2_6", ((0, 0, 0, 0), (2,)), (0, 0, 1, 1)),
            ("torus7", ((0, 0, 2, 1), ()), (0, 0, 2, 1)),
        ):
            S = barycentric(barycentric(corpus(name)))
            bv = reduced_betti(S, INTEGERS)
            assert (bv.reduced, bv.torsion_in(1)) == over_z, name
            assert reduced_betti(S, prime_field(2)).reduced == over_f2, name
            assert reduced_betti(S, RATIONALS).reduced == over_z[0], name


class TestCrosschecksAndInvariants:
    def test_crosscheck_full_corpus(self, corpus_posets):
        for name, S in corpus_posets.items():
            for coeff in ALL_COEFFS:
                assert betti_crosscheck(S, coeff), (name, coeff.label)

    def test_euler_poincare(self, corpus_posets):
        for S in corpus_posets.values():
            chi = euler_characteristic(S)
            for coeff in (RATIONALS, prime_field(2), prime_field(3)):
                bv = reduced_betti(S, coeff)
                chi_b = 1 + sum(
                    (bv.degree(i) if i % 2 == 0 else -bv.degree(i))
                    for i in range(S.n)
                )
                assert chi == chi_b, S.name

    def test_universal_coefficients_inequality(self, corpus_posets):
        for S in corpus_posets.values():
            over_q = reduced_betti(S, RATIONALS)
            for p in (2, 3):
                over_p = reduced_betti(S, prime_field(p))
                assert all(
                    over_p.degree(i) >= over_q.degree(i)
                    for i in over_q.degrees()
                )
