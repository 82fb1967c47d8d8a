"""Independent oracles: brute-force routes the library must reproduce.

Each helper re-derives an expected value along a path the production
code does not share: subset enumeration for face posets, explicit
downward closures for Boolean intervals, up-sets and link posets,
cofactor expansion for determinants, determinant divisors for Smith
normal forms, fraction and mod-p Gaussian elimination for ranks,
products of coefficient lists for the h-vector and the link identities,
Kunneth convolution for product Betti profiles, the barycentric
subdivision for cellular homology, dense boundary matrices written out
from each face's own facet list and their Smith forms for (link)
homology, a face-by-face check of characteristic functions, and the
rejection sampler's loop with one full ``check`` per attempt, and the
long exact sequence of (Q, bd Q) read map by map for manifold rank
data.  One
writer, ``bundle_doc``, gives tests the problem bundles the library
only reads, ``staircase_product`` the facets of product manifolds (and
``s1_x_s2`` and ``t3`` two of them), and ``antipodal_cross`` the
antipodal quotients of cross-polytope boundaries.
The dense matrices and the link posets read neither the library's signed
incidence nor its cover map.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd


def powerset_faces(facet_sets):
    """All nonempty subsets of the given facets, as a set of frozensets."""
    out = set()
    for fs in facet_sets:
        fs = tuple(fs)
        for k in range(1, len(fs) + 1):
            for sub in combinations(fs, k):
                out.add(frozenset(sub))
    return out


def interval_ids(S, eid):
    """Downward closure of a face by breadth-first facet descent."""
    seen = {eid}
    frontier = [eid]
    while frontier:
        nxt = []
        for cur in frontier:
            for fid in S.element(cur).facets:
                if fid not in seen:
                    seen.add(fid)
                    nxt.append(fid)
        frontier = nxt
    return seen


def oracle_link(S, eid):
    """Link of a face by full scan: every face whose downward closure
    holds ``eid`` is above it, and its link vertices are the faces
    covering ``eid`` in that closure.  Quadratic in the poset size."""
    from sposet.poset import SimplexElem, from_face_lattice

    base = S.element(eid)
    down = {e.id: interval_ids(S, e.id) for e in S.elements()}
    above = [e for e in S.elements() if eid in down[e.id] and e.id != eid]
    atoms = [e.id for e in above if e.rank == base.rank + 1]
    vsets = {e.id: tuple(sorted(a for a in atoms if a in down[e.id])) for e in above}
    elems = []
    for e in above:
        vs = vsets[e.id]
        facets = ()
        if len(vs) > 1:
            facets = tuple(
                next(
                    f for f in e.facets
                    if eid in down[f] and vsets[f] == vs[:j] + vs[j + 1 :]
                )
                for j in range(len(vs))
            )
        elems.append(SimplexElem(e.id, vs, facets))
    return from_face_lattice(
        elems, n=S.n - base.rank, name=f"lk({S.name or '?'};{eid})"
    )


def cofactor_determinant(rows, idx_r=None, idx_c=None):
    """Determinant of a square matrix, or of its minor on the given row
    and column indices, by cofactor expansion along the first row; the
    empty matrix has determinant 1.  No elimination, no division."""
    if idx_r is None:
        idx_r = idx_c = tuple(range(len(rows)))
    if not idx_r:
        return 1
    total = 0
    for pos, c in enumerate(idx_c):
        sub = cofactor_determinant(rows, idx_r[1:], idx_c[:pos] + idx_c[pos + 1 :])
        term = rows[idx_r[0]][c] * sub
        total += term if pos % 2 == 0 else -term
    return total


def minor_gcd_invariant_factors(rows):
    """Invariant factors via determinant divisors: d_k = D_k / D_(k-1)
    where D_k is the gcd of all k x k minors.  Only viable for small
    matrices; completely independent of any elimination."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for idx_r in combinations(range(m), k):
            for idx_c in combinations(range(n), k):
                g = gcd(g, abs(cofactor_determinant(rows, idx_r, idx_c)))
        if g == 0:
            break
        divisors.append(g)
    return tuple(
        divisors[k] // divisors[k - 1] for k in range(1, len(divisors))
    )


def oracle_charfn_check(S, lam, coeff):
    """Validity of an assignment on every face, each face on its own.

    Over z the k vectors of a rank-k face must have k invariant factors,
    all 1, by determinant divisors; over q or fp:p they must have rank k
    by exact elimination.  Returns (verdicts, passed, first_failure) in
    the shape of the library's report: verdicts in (rank, id) order, and
    the first failing face with its invariant factors.
    """
    verdicts = []
    first_failure = None
    for e in S.elements():
        rows = [lam.assignment[v] for v in e.vertices]
        k = e.rank
        factors = minor_gcd_invariant_factors(rows)
        if coeff.label == "z":
            ok = len(factors) == k and all(d == 1 for d in factors)
        elif coeff.label == "q":
            ok = rank_over_q(rows) == k
        else:
            ok = rank_mod_p(rows, coeff.p) == k
        verdicts.append((e.id, ok))
        if not ok and first_failure is None:
            first_failure = (e.id, factors)
    return tuple(verdicts), first_failure is None, first_failure


def oracle_random_q_charfn(S, n, seed, bound, budget=10_000):
    """The rejection sampler with one full rational ``check`` per attempt.

    Draws, refusals and the BudgetExhausted message are those of
    ``sposet.charfn.random_q_charfn``; only the judging differs: here
    every attempt builds a CharFunction and runs the whole top-down
    check, and the failures are counted in the same pass.
    """
    import random

    from sposet.charfn import CharFunction, check
    from sposet.errors import (
        BudgetExhausted,
        InvalidArgument,
        NonPrimitiveVector,
        WrongVectorLength,
    )
    from sposet.homology import RATIONALS

    for name, value in (("n", n), ("seed", seed), ("bound", bound), ("budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidArgument(f"{name} = {value!r} is not an integer")
    if n != S.n:
        raise WrongVectorLength(
            f"vectors of length {n} need a poset of ambient rank {n}, not {S.n}"
        )
    if bound < 1:
        raise NonPrimitiveVector(
            f"bound {bound} leaves no primitive vectors: it must be >= 1"
        )
    if budget < 1:
        raise InvalidArgument(f"budget {budget} allows no attempt: it must be >= 1")
    rng = random.Random(seed)
    vertices = dict.fromkeys(v for e in S.by_rank(1) for v in e.vertices)
    fail_counts = {}
    for _ in range(budget):
        assignment = {}
        for vid in vertices:
            while True:
                vec = tuple(rng.randint(-bound, bound) for _ in range(n))
                if any(vec):
                    break
            g = gcd(*(abs(x) for x in vec))
            assignment[vid] = tuple(x // g for x in vec)
        lam = CharFunction(n, assignment)
        report = check(S, lam, RATIONALS)
        if report.passed:
            return lam
        bad = report.first_failure[0]
        fail_counts[bad] = fail_counts.get(bad, 0) + 1
    worst = max(sorted(fail_counts), key=fail_counts.get)
    raise BudgetExhausted(
        f"no valid assignment in {budget} attempts; simplex {worst!r} "
        f"failed {fail_counts[worst]} times",
        failing_simplex=worst,
        attempts=budget,
    )


def rank_over_q(rows):
    """Rank by Gaussian elimination over exact rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(m):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank by Gaussian elimination over F_p."""
    mat = [[x % p for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(m):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _expand(terms):
    """Coefficient list of sum c * prod(factors) over (c, factors) pairs,
    each factor a coefficient list, by repeated list multiplication."""
    out = []
    for c, factors in terms:
        poly = [c]
        for fac in factors:
            poly = _poly_mul(poly, fac)
        out += [0] * (len(poly) - len(out))
        for i, x in enumerate(poly):
            out[i] += x
    return tuple(out)


def h_from_f_polynomial(f, n):
    """h-numbers as the coefficients of sum_i f_(i-1) t^i (1-t)^(n-i)."""
    return _expand((f[i], [[0, 1]] * i + [[1, -1]] * (n - i)) for i in range(n + 1))


def f_from_link_polynomial(ft, n, chi):
    """Right side of f_S(t) = (1 - chi) + (-1)^n sum_k ft_k (-t-1)^(k+1)."""
    return _expand([(1 - chi, [])] + [
        ((-1) ** n * ft[k], [[-1, -1]] * (k + 1)) for k in range(n)])


def h_from_link_polynomial(ft, n, chi):
    """Right side of sum h_i t^i = (1-t)^n (1-chi) + sum_k ft_k (t-1)^(n-k-1)."""
    return _expand([(1 - chi, [[1, -1]] * n)] + [
        (ft[k], [[-1, 1]] * (n - k - 1)) for k in range(n)])


def kunneth(*profiles):
    """Betti profile of a product space: convolution of the factors."""
    out = (1,)
    for prof in profiles:
        new = [0] * (len(out) + len(prof) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(prof):
                new[i + j] += a * b
        out = tuple(new)
    return out


def matrix_product_is_zero(A, B):
    """Explicit check that two dense integer matrices compose to zero."""
    if not A or not B:
        return True
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    for i in range(rows):
        for j in range(cols):
            if sum(A[i][k] * B[k][j] for k in range(inner)) != 0:
                return False
    return True


def betti_crosscheck(S, coeff):
    """Cell complex versus barycentric subdivision, entrywise: True iff
    the poset's own cellular homology agrees with the simplicial
    homology of its subdivision, torsion included over the integers."""
    from sposet.homology import reduced_betti
    from sposet.poset import barycentric

    a = reduced_betti(S, coeff)
    b = reduced_betti(barycentric(S), coeff)
    return a.reduced == b.reduced and a.torsion == b.torsion


def dense_boundaries(S, root=None):
    """Generators and signed boundary matrices of the complex restricted
    to the faces above ``root``, or of the whole poset for None.

    ``generators[k]`` lists the faces k + 1 ranks above the root in
    (rank, id) order, the up-set read off each face's downward closure;
    ``boundaries[k]`` maps them onto the level below, and
    ``boundaries[0]`` onto the root itself, the augmentation row.  Each
    column is written out from its face's own facet list: the j-th facet
    gets (-1)^j, and a vertex's one facet is the minimal element.
    """
    base = 0 if root is None else S.element(root).rank
    up = [e for e in S.elements()
          if root is None or (e.id != root and root in interval_ids(S, e.id))]
    top = max((e.rank for e in up), default=base)
    gens = tuple(tuple(e.id for e in up if e.rank == r) for r in range(base + 1, top + 1))
    boundaries = []
    for lower, upper in zip(((root,), *gens), gens):
        index = {eid: i for i, eid in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for j, eid in enumerate(upper):
            for pos, fid in enumerate(S.element(eid).facets or (None,)):
                if fid in index:
                    rows[index[fid]][j] = (-1) ** pos
        boundaries.append(tuple(map(tuple, rows)))
    return gens, tuple(boundaries)


def dense_betti(S, coeff, root=None):
    """Reduced Betti numbers, and the torsion over the integers, of the
    complex restricted to the faces above ``root`` (the whole poset for
    None), from ``dense_boundaries`` and their Smith forms, padded to the
    ambient rank as ``reduced_betti`` pads them."""
    from sposet.homology import INTEGERS, smith_normal_form

    gens, boundaries = dense_boundaries(S, root)
    n = S.n - (0 if root is None else S.element(root).rank)
    f = [1, *map(len, gens)] + [0] * (n - len(gens))
    snfs = [smith_normal_form(m) for m in boundaries]
    snfs += [None] * (len(f) - len(snfs))
    # snfs[i] maps the faces counted by f[i + 1] onto those counted by f[i]
    rank = [0] + [0 if s is None else s.rank_over(coeff) for s in snfs]
    reduced = tuple(f[i] - rank[i] - rank[i + 1] for i in range(len(f)))
    if coeff != INTEGERS:
        return reduced, ()
    return reduced, tuple(() if s is None else tuple(d for d in s.factors if d > 1)
                          for s in snfs)


def euler_characteristic(S):
    """Alternating face-count sum over the nonminimal elements."""
    return sum((-1) ** e.dim for e in S.elements())


def bundle_doc(prob):
    """A cone-v1 or manifold-v1 document for a quotient problem.

    The library reads bundles but does not write them; tests that need
    one as input write it here, from the library's poset and charfn
    emitters.
    """
    from sposet import io as io_mod
    from sposet.spectral import CONE

    doc = {
        "format": "cone-v1" if prob.kind == CONE else "manifold-v1",
        "poset": io_mod.emit_poset(prob.poset),
        "n": prob.n,
        "field": prob.coeff.label,
        "charfn": io_mod.emit_charfn(prob.charfn) if prob.charfn else None,
    }
    if prob.kind != CONE:
        doc.update(bettiQ=list(prob.betti_q), iota=list(prob.iota), orientable=True)
    return doc


def exact_sequence(reduced, betti_q, iota):
    """Whether manifold rank data fit the long exact sequence of (Q, bd Q)

        0 -> H_n(Q) -j-> H_n(Q, bd Q) -delta-> H_(n-1)(bd Q) -iota-> H_(n-1)(Q) -> ...
          -> H_0(Q) -j-> H_0(Q, bd Q) -> 0

    for a boundary with reduced Betti numbers ``reduced`` in degrees
    -1..n-1.  The groups' dimensions: dim H_i(bd Q) = b~_i + [i = 0] for
    i < n and 0 from n on, as bd Q has dimension n - 1; dim H_i(Q) =
    betti_q[i]; dim H_i(Q, bd Q) = betti_q[n - i] by duality.  Each map's
    rank is read off the group it leaves or enters: j_i = betti_q[i] -
    iota[i] from H_i(Q), delta_(i+1) = dim H_i(bd Q) - iota[i] from
    H_i(bd Q).  The data are exact when every rank is >= 0 and the ranks
    in and out of every H_i(Q, bd Q) add up to its dimension, the maps out
    of H_(n+1)(Q, bd Q) = 0 and into H_(-1)(bd Q) = 0 having rank 0.
    """
    n = len(betti_q) - 1
    bd = [reduced[i + 1] + (i == 0) for i in range(n)] + [0]
    j = [betti_q[i] - iota[i] for i in range(n + 1)]
    delta = [0] + [bd[i] - iota[i] for i in range(n + 1)]
    return (all(r >= 0 for r in (*iota, *j, *delta)) and delta[n + 1] == 0
            and all(betti_q[n - i] == j[i] + delta[i] for i in range(n + 1)))


def staircase_product(K, L):
    """Facets of the product of two complexes, each given by its facets,
    in the staircase (Eilenberg-Zilber shuffle) triangulation.

    Every facet's vertices are taken in name order, one order on each
    side, so the triangulated prisms agree on the faces they share.  A
    p-simplex times a q-simplex gives one (p + q)-simplex per monotone
    lattice path through their vertex grid, C(p + q, p) of them; the
    vertex (a, b) is named "a*b".
    """
    facets = []
    for a, b in product(map(sorted, K), map(sorted, L)):
        steps = len(a) + len(b) - 2
        for up in combinations(range(steps), len(a) - 1):  # the steps along a
            i = j = 0
            path = [f"{a[0]}*{b[0]}"]
            for s in range(steps):
                i, j = (i + 1, j) if s in up else (i, j + 1)
                path.append(f"{a[i]}*{b[j]}")
            facets.append(path)
    return facets


def s1_x_s2():
    """S^1 x S^2 as the triangle boundary times the tetrahedron boundary:
    36 facets, n = 4, b~_1 = b~_2 = b~_3 = 1."""
    from sposet.corpus import corpus
    from sposet.poset import from_facets

    K, L = ([f.vertices for f in corpus(f"boundary_simplex({k})").by_rank(k)]
            for k in (2, 3))
    return from_facets(staircase_product(K, L), name="S1xS2")


def t3():
    """T^3 as three triangle boundaries: 27 vertices, 162 facets, n = 4."""
    from sposet.corpus import corpus
    from sposet.poset import from_facets

    K = [f.vertices for f in corpus("boundary_simplex(2)").by_rank(2)]
    return from_facets(staircase_product(staircase_product(K, K), K), name="T3")


def antipodal_cross(m):
    """The boundary of the m-dimensional cross-polytope modulo x -> -x.

    Its faces are the nonzero sign vectors in {-1, 0, 1}^m up to a global
    sign, each kept in the form whose first nonzero sign is +.  The face
    s has as vertices the i in its support, the class of +-e_i, named
    "v<i>", and its facets drop one of them.  No complex from m = 3 on:
    m = 3 gives RP^2 and m = 4 RP^3, whose 8 facets share one vertex set.
    """
    from sposet.poset import SimplexElem, from_face_lattice

    def face_id(signs):
        support = [i for i, s in enumerate(signs) if s]
        if len(support) == 1:
            return f"v{support[0] + 1}"
        first = signs[support[0]]
        return "".join("0+-"[s * first] for s in signs)

    elems = []
    for signs in product((0, 1, -1), repeat=m):
        support = [i for i, s in enumerate(signs) if s]
        if not support or signs[support[0]] != 1:
            continue
        facets = [face_id([0 if k == i else s for k, s in enumerate(signs)])
                  for i in support] if len(support) > 1 else []
        elems.append(SimplexElem(face_id(signs), tuple(f"v{i + 1}" for i in support),
                                 tuple(facets)))
    return from_face_lattice(elems, n=m, name=f"antipodal_cross({m})")
