"""Exact homology of simplicial posets over Z, Q and prime fields.

The chain complex carries one generator per poset element; the boundary
of a face is the alternating sum of its facet list, which is well
defined because lower intervals are Boolean.  The augmentation onto the
implicit minimal face is kept as the degree-0 boundary, so every Betti
number produced here is reduced and the empty poset correctly reports a
single unit in degree -1.

Smith normal forms are computed once per matrix over the integers and
cached; ranks over Q and F_p are read off the invariant factors, so all
coefficient systems share one exact elimination.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import InternalError, SposetError
from .poset import SimplicialPoset, barycentric

Matrix = tuple[tuple[int, ...], ...]

_INTEGERS = "integers"
_RATIONALS = "rationals"
_PRIME_FIELD = "prime-field"


# Miller-Rabin with these bases decides primality exactly below 2**64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    # p - 1 = d * 2**s with d odd; (p - 1) & (1 - p) is its lowest set bit
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Coefficients:
    """Ground ring for homology: Z, Q or F_p, p a prime below 2**64 (checked)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (_INTEGERS, _RATIONALS, _PRIME_FIELD):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == _PRIME_FIELD:
            if self.p is not None and self.p >= 2**64:
                raise ValueError(f"{self.p} is too large: p must be below 2**64")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"{self.p!r} is not prime")
        elif self.p is not None:
            raise ValueError("p only makes sense for prime fields")

    @property
    def is_field(self) -> bool:
        return self.kind != _INTEGERS

    @property
    def label(self) -> str:
        if self.kind == _INTEGERS:
            return "z"
        if self.kind == _RATIONALS:
            return "q"
        return f"fp:{self.p}"

    def __str__(self) -> str:
        return self.label


INTEGERS = Coefficients(_INTEGERS)
RATIONALS = Coefficients(_RATIONALS)


def prime_field(p: int) -> Coefficients:
    return Coefficients(_PRIME_FIELD, p)


def parse_coefficients(label: str) -> Coefficients:
    """Parse 'z', 'q' or 'fp:<p>' into a Coefficients value."""
    label = label.strip().lower()
    if label == "z":
        return INTEGERS
    if label == "q":
        return RATIONALS
    if label.startswith("fp:"):
        try:
            return prime_field(int(label[3:]))
        except ValueError as exc:
            raise SposetError(f"bad coefficient label {label!r}: {exc}") from None
    raise SposetError(f"bad coefficient label {label!r}")


@dataclass(frozen=True)
class SnfResult:
    """Nonzero invariant factors d_1 | d_2 | ... | d_r and the rank r."""

    factors: tuple[int, ...]
    rank: int

    def rank_over(self, coeff: Coefficients) -> int:
        if coeff.kind == _PRIME_FIELD:
            return sum(1 for d in self.factors if d % coeff.p != 0)
        return self.rank


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form of an integer matrix, exact at any size.

    Returns the positive invariant factors in divisibility order.  Pure
    integer arithmetic throughout; results are cached per matrix.
    """
    return _snf_cached(tuple(tuple(int(x) for x in row) for row in matrix))


@lru_cache(maxsize=None)
def _snf_cached(mat: Matrix) -> SnfResult:
    factors = _invariant_factors([list(row) for row in mat])
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalError(f"invariant factor {a} does not divide {b}")
    return SnfResult(tuple(factors), len(factors))


def _invariant_factors(A: list[list[int]]) -> list[int]:
    m = len(A)
    n = len(A[0]) if m else 0
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero absolute value in the trailing block
        pi = pj = -1
        best = 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best == 0 or -best < v < best):
                    best = abs(v)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]

        dirty = True
        while dirty:
            dirty = False
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
            p = A[t][t]
            for i in range(t + 1, m):
                v = A[i][t]
                if v:
                    q = v // p
                    if q:
                        At = A[t]
                        A[i] = [a - q * b for a, b in zip(A[i], At)]
                    if A[i][t]:
                        # remainder beats the pivot; promote it
                        A[t], A[i] = A[i], A[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                v = A[t][j]
                if v:
                    q = v // p
                    if q:
                        for r in range(t, m):
                            A[r][j] -= q * A[r][t]
                    if A[t][j]:
                        for r in range(t, m):
                            A[r][t], A[r][j] = A[r][j], A[r][t]
                        dirty = True
                        break
            if dirty:
                continue
            # the pivot must divide the rest of the block
            p = A[t][t]
            for i in range(t + 1, m):
                row = A[i]
                if any(row[j] % p for j in range(t + 1, n)):
                    A[t] = [a + b for a, b in zip(A[t], row)]
                    dirty = True
                    break
        factors.append(A[t][t])
        t += 1
    return factors


@dataclass(frozen=True)
class ChainData:
    """Cellular chain complex of a poset.

    ``generators[k]`` lists the ids of the dimension-k faces in the
    canonical (rank, id) order; ``boundaries[k]`` maps C_k to C_(k-1).
    Index 0 holds the augmentation row onto the implicit minimal face.
    """

    generators: tuple[tuple[str, ...], ...]
    boundaries: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.generators) - 1

    def boundary(self, k: int) -> Matrix:
        return self.boundaries[k]


def boundary_matrices(S: SimplicialPoset) -> ChainData:
    """Signed boundary matrices of the poset's cellular chain complex.

    Verifies D_(k-1) . D_k = 0 before returning; entries are in
    {-1, 0, 1} by construction.
    """
    cached = S._cache.get("chain")
    if cached is not None:
        return cached

    top = S.dim
    gens = tuple(
        tuple(e.id for e in S.by_rank(k + 1)) for k in range(top + 1)
    )
    index = [{eid: i for i, eid in enumerate(g)} for g in gens]

    boundaries = []
    if top >= 0:
        boundaries.append((tuple(1 for _ in gens[0]),))
        for k in range(1, top + 1):
            rows = len(gens[k - 1])
            cols = [dict() for _ in gens[k]]
            for j, eid in enumerate(gens[k]):
                for pos, fid in enumerate(S.element(eid).facets):
                    cols[j][index[k - 1][fid]] = 1 if pos % 2 == 0 else -1
            boundaries.append(
                tuple(
                    tuple(cols[j].get(i, 0) for j in range(len(gens[k])))
                    for i in range(rows)
                )
            )

    data = ChainData(gens, tuple(boundaries))
    _check_complex(data)
    S._cache["chain"] = data
    return data


def _check_complex(data: ChainData) -> None:
    for k in range(1, len(data.boundaries)):
        upper = data.boundaries[k]
        lower = data.boundaries[k - 1]
        cols = len(upper[0]) if upper else 0
        for j in range(cols):
            sparse = [(i, upper[i][j]) for i in range(len(upper)) if upper[i][j]]
            for r in range(len(lower)):
                if sum(lower[r][i] * v for i, v in sparse):
                    raise InternalError(f"boundary squared nonzero in degree {k}")


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers in degrees -1..n-1 over one coefficient ring.

    Over the integers ``torsion[k]`` lists the invariant factors (> 1)
    of the torsion subgroup in degree k; over fields it stays empty.
    """

    coeff: Coefficients
    reduced: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] = field(default=())

    def degree(self, i: int) -> int:
        return self.reduced[i + 1]

    def torsion_in(self, i: int) -> tuple[int, ...]:
        if not self.torsion:
            return ()
        return self.torsion[i + 1]

    def degrees(self):
        return range(-1, len(self.reduced) - 1)


def reduced_betti(S: SimplicialPoset, coeff: Coefficients) -> BettiVector:
    """Reduced Betti numbers of the realization, padded to degree n-1.

    The augmentation is part of the complex, so b~_0 counts components
    minus one and the empty poset has b~_(-1) = 1.  Computed once per
    (poset, ring) and kept on the poset.
    """
    key = ("betti", coeff)
    cached = S._cache.get(key)
    if cached is not None:
        return cached
    data = boundary_matrices(S)
    top = data.dim
    snfs = [smith_normal_form(data.boundary(k)) for k in range(top + 1)]

    def rank(k: int) -> int:
        if 0 <= k <= top:
            return snfs[k].rank_over(coeff)
        return 0

    reduced = [1 - rank(0)]
    for k in range(top + 1):
        reduced.append(len(data.generators[k]) - rank(k) - rank(k + 1))
    reduced.extend(0 for _ in range(S.n - 1 - top))

    torsion: tuple[tuple[int, ...], ...] = ()
    if coeff == INTEGERS:
        tor = []
        for k in range(-1, S.n):
            if 0 <= k + 1 <= top:
                tor.append(tuple(d for d in snfs[k + 1].factors if d > 1))
            else:
                tor.append(())
        torsion = tuple(tor)

    out = BettiVector(coeff, tuple(reduced), torsion)
    S._cache[key] = out
    return out


def betti_crosscheck(S: SimplicialPoset, coeff: Coefficients) -> bool:
    """Cell complex versus barycentric subdivision, entrywise.

    True iff the poset's own cellular homology agrees with the
    simplicial homology of its barycentric subdivision, torsion
    included over the integers.
    """
    a = reduced_betti(S, coeff)
    b = reduced_betti(barycentric(S), coeff)
    return a.reduced == b.reduced and a.torsion == b.torsion


def euler_characteristic(S: SimplicialPoset) -> int:
    """Alternating face-count sum over the nonminimal elements."""
    chi = 0
    for e in S.elements():
        chi += 1 if e.dim % 2 == 0 else -1
    return chi
