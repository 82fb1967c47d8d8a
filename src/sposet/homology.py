"""Exact homology of simplicial posets over Z, Q and prime fields.

The chain complex carries one generator per poset element; the boundary
of a face is the alternating sum of its facet list, which is well
defined because lower intervals are Boolean.  The augmentation onto the
implicit minimal face is kept as the degree-0 boundary, so every Betti
number produced here is reduced and the empty poset correctly reports a
single unit in degree -1.  The reduced homology of the link of a face is
that of the same complex restricted to the faces above it, the face
taking the place of the minimal element (Munkres, Elements of Algebraic
Topology, Lemma 63.1), so no link poset is built.

Each poset keeps one signed incidence, checked for d.d = 0 once.  The two
lowest boundary matrices of an up-set, of the whole poset or of the faces
above a root, are closed forms: the augmentation row, and a graph's
incidence up to unit row signs whose rank V - c comes from union-find on
the covers.  Every higher matrix is taken from the incidence as sparse
columns and eliminated by unit pivots through a pivot map, each column
reduced against the pivots found before it; only the leftover core, which
holds all torsion, goes to the dense Smith form.  An up-set's levels are
eliminated from the top down with clearing (Chen and Kerber, EuroCG
2011): a unit pivot row of the matrix above is no column of its own
level's matrix.  That is exact over Z: the pivot columns are
unitriangular on their rows, so modulo boundaries each cleared face is an
integer combination of the faces left, and by d.d = 0 its column is one
of theirs.  The integer Smith forms are kept per up-set root, and Q and
F_p ranks are read off them.  The link rows of all faces form one table
per (poset, ring), built in one sweep: a face of codimension <= 2 reads
its row in closed form from the covers and their covers, a deeper one off
its up-set's Smith forms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import cycle
from typing import KeysView, Sequence

from .errors import InternalError, InvalidArgument, shown
from .poset import SimplicialPoset, _components, _require_poset, is_int

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
            raise InvalidArgument(f"unknown coefficient kind {shown(self.kind)}")
        if self.kind == _PRIME_FIELD:
            if not is_int(self.p):
                raise InvalidArgument(f"p = {shown(self.p)} is not an integer")
            if self.p >= 2**64:
                raise InvalidArgument(f"{shown(self.p)} is too large: p must be below 2**64")
            if not _is_prime(self.p):
                raise InvalidArgument(f"{shown(self.p)} is not prime")
        elif self.p is not None:
            raise InvalidArgument("p only makes sense for prime fields")

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
    if not isinstance(label, str):
        raise InvalidArgument(f"coefficient label {shown(label)} is not a str")
    label = label.strip().lower()
    if label == "z":
        return INTEGERS
    if label == "q":
        return RATIONALS
    if label.startswith("fp:"):
        try:
            return prime_field(int(label[3:]))
        except ValueError as exc:
            raise InvalidArgument(f"bad coefficient label {shown(label)}: {exc}") from None
    raise InvalidArgument(f"bad coefficient label {shown(label)}")


@dataclass(frozen=True)
class SnfResult:
    """Nonzero invariant factors d_1 | d_2 | ... | d_r; their count is the rank r."""

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)

    def rank_over(self, coeff: Coefficients) -> int:
        if coeff.kind == _PRIME_FIELD:
            return sum(1 for d in self.factors if d % coeff.p != 0)
        return len(self.factors)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form of an integer matrix, exact at any size.

    Returns the positive invariant factors in divisibility order.  Pure
    integer arithmetic throughout, on a private copy of the rows, which
    must be lists or tuples of one length holding ints that are not bools.
    """
    shaped = (list, tuple)
    if not (isinstance(matrix, shaped) and all(isinstance(row, shaped) for row in matrix)):
        raise InvalidArgument(f"{type(matrix).__name__} is not a list or tuple of rows")
    rows = [list(row) for row in matrix]
    for row in rows:
        if len(row) != len(rows[0]):
            raise InvalidArgument(f"rows of {len(rows[0])} and {len(row)} entries")
        if not all(map(is_int, row)):
            raise InvalidArgument(f"row {shown(row)} holds an entry that is not an integer")
    factors = _invariant_factors(rows)
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalError(f"invariant factor {a} does not divide {b}")
    return SnfResult(tuple(factors))


def _invariant_factors(rows: list[list[int]]) -> list[int]:
    # Each step turns one pivot into the next invariant factor and drops
    # its row; its column is then zero in every row left, so it needs no
    # bookkeeping.  Elimination runs in place on ``rows``.
    factors: list[int] = []
    while rows:
        # pivot: a unit if some row has one, else the smallest nonzero entry
        for i, row in enumerate(rows):
            if 1 in row or -1 in row:
                j = row.index(1) if 1 in row else row.index(-1)
                break
        else:
            best = i = j = 0
            for r, row in enumerate(rows):
                for c, v in enumerate(row):
                    if v and (best == 0 or abs(v) < best):
                        best, i, j = abs(v), r, c
            if best == 0:
                break
        while True:
            piv = rows[i]
            if piv[j] < 0:
                piv = rows[i] = [-x for x in piv]
            p = piv[j]
            # clear column j in the other rows; a remainder becomes the pivot
            for r, row in enumerate(rows):
                v = row[j]
                if v and r != i:
                    q = v // p
                    if q:
                        row = rows[r] = [a - q * b for a, b in zip(row, piv)]
                    if row[j]:
                        i = r
                        break
            else:
                if p == 1:
                    break  # a unit divides everything left
                # column j is clear in the other rows, so the column
                # operations clearing row i change row i only
                for c, v in enumerate(piv):
                    if v and c != j:
                        piv[c] = v % p
                        if piv[c]:
                            j = c
                            break
                else:
                    # the pivot must divide every entry left
                    for row in rows:
                        if any(v % p for v in row):
                            rows[i] = [a + b for a, b in zip(piv, row)]
                            break
                    else:
                        break
        factors.append(p)
        del rows[i]
    return factors


def _incidence(S: SimplicialPoset) -> dict[str, tuple[tuple[str | None, int], ...]]:
    # each face's boundary as (facet id, (-1)**pos) pairs, a vertex's one
    # facet being the implicit minimal element, None; built and checked
    # once per poset
    incidence = S._cache.get("incidence")
    if incidence is None:
        incidence = {e.id: tuple(zip(e.facets or (None,), cycle((1, -1)))) for e in S}
        _check_complex(incidence)
        S._cache["incidence"] = incidence
    return incidence


def _check_complex(incidence) -> None:
    # d.d = 0 on the whole complex, sparsely: each face against the
    # facets of its facets, O(sum of rank**2).  The faces >= a root form
    # the quotient of this complex by the subcomplex of faces not >= it,
    # so every restricted complex inherits d.d = 0 and is not checked.
    for eid, boundary in incidence.items():
        total: dict[str | None, int] = {}
        for fid, sign in boundary:
            for gid, inner in incidence.get(fid, ()):
                total[gid] = total.get(gid, 0) + sign * inner
        if any(total.values()):
            raise InternalError(f"boundary squared nonzero at face {eid!r}")


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
        return self.torsion[i + 1] if self.torsion else ()

    def degrees(self):
        return range(-1, len(self.reduced) - 1)


def _unit_smith_form(columns: list[dict]) -> tuple[SnfResult, KeysView]:
    """Smith form of the integer matrix with these columns (row id -> nonzero
    entry), and its unit pivot rows in the order found.

    Each column in turn is reduced against the pivots found so far, a map
    from row to (order found, column, entry +-1); if it then holds a +-1,
    it becomes that row's pivot and one unit invariant factor (Dumas,
    Saunders and Villard, JSC 2001).  The pivot columns are unitriangular
    on their rows.  The other columns are reduced once more at the end,
    and those still nonzero go to the dense ``smith_normal_form``, whose
    pivots are not reported: torsion always ends there.  The column dicts
    are reduced in place.
    """
    pivots: dict = {}
    left = []
    for col in columns:
        _reduce(col, pivots)
        # the first unit; the row id None is the augmentation's minimal
        # element, so no row id can mark "none found"
        for r, v in col.items():
            if v == 1 or v == -1:
                del col[r]
                pivots[r] = (len(pivots), col, v)
                break
        else:
            if col:
                left.append(col)
    for col in left:
        _reduce(col, pivots)
    left = [col for col in left if col]
    core = SnfResult(())
    if left:
        index = dict.fromkeys(r for col in left for r in col)
        core = smith_normal_form([[col.get(r, 0) for r in index] for col in left])
    return SnfResult((1,) * len(pivots) + core.factors), pivots.keys()


def _reduce(col: dict, pivots: dict) -> None:
    # Clears col at every pivot row by integer column operations, taking
    # the pivots in the order found: a pivot's column is zero at the rows
    # of those found before it, so a cleared row never comes back.
    hits = [(pivots[r][0], r) for r in col if r in pivots]
    heapify(hits)
    while hits:
        r = heappop(hits)[1]
        v = col.pop(r, 0)
        if not v:
            continue  # cancelled since it was queued
        _, pivot_col, s = pivots[r]
        q = v * s
        for i, u in pivot_col.items():
            # q * u is nonzero, so a zero sum cancels an entry of col
            w = col.get(i, 0) - q * u
            if not w:
                del col[i]
            else:
                if i not in col and i in pivots:
                    heappush(hits, (pivots[i][0], i))
                col[i] = w


def _require_ring(coeff) -> None:
    # the one type guard of a ring argument, ahead of any read of it
    if not isinstance(coeff, Coefficients):
        raise InvalidArgument(f"coefficients {shown(coeff)} are not a Coefficients value")


def _low_row(cofaces, root):
    # The closed form of an up-set's two lowest levels: the reduced Betti
    # numbers of the graph on the root's V covers whose E edges are the
    # faces two ranks up, and those faces in the cover map's order.  Each
    # lies over two covers (its interval from the root is Boolean), so by
    # d.d = 0 the second matrix is the graph's incidence up to unit row
    # signs, all factors 1 over every ring: no covers give (1, 0, 0), else
    # (0, c - 1, E - V + c) for its c components, found by union-find over
    # the covers, each face two ranks up joining the two it lies over.
    covers = cofaces[root]
    if not covers:
        return (1, 0, 0), {}
    twos, joins = {}, []  # twos: each face two ranks up -> the first cover under it
    for e in covers:
        eid = e.id
        for c in cofaces[eid]:
            first = twos.setdefault(c.id, eid)
            if first != eid:
                joins.append((first, eid))
    c = _components(len(covers), joins)
    return (0, c - 1, len(twos) - len(covers) + c), twos


def _walk_up(cofaces, level: dict) -> list[dict]:
    # this level and every nonempty one above it, each as ids in the order
    # the cover map meets them, so no pivot choice depends on str hashing
    levels = []
    while level:
        levels.append(level)
        level = {c.id: None for fid in level for c in cofaces[fid]}
    return levels


def _up_set_forms(S: SimplicialPoset, root: str | None):
    # The face counts f_(-1)..f_(n-1) of the faces >= root and one integer
    # Smith form per boundary matrix, shared by every ring: two closed
    # forms, then the higher matrices from the top level down, each without
    # the faces that are unit pivot rows of the one above (clearing).
    incidence = _incidence(S)  # checks d.d = 0, which all of this rests on
    n = S.n - (0 if root is None else S.element(root).rank)
    cofaces = S._cofaces()
    low, twos = _low_row(cofaces, root)
    levels = _walk_up(cofaces, twos)
    f = [1, len(cofaces[root]), *map(len, levels)][:n + 1]
    f += [0] * (n + 1 - len(f))
    higher, cleared = [], {}
    for lower, level in reversed(list(zip(levels, levels[1:]))):
        snf, cleared = _unit_smith_form(
            [{fid: s for fid, s in incidence[eid] if fid in lower}
             for eid in level if eid not in cleared])
        higher.append(snf)
    # the two lowest ranks back from the graph's: 1 - b~_(-1) and E - b~_1
    lowest = [SnfResult((1,) * r) for r in (1 - low[0], len(twos) - low[2])][:n]
    return f, (*lowest, *reversed(higher))


def _link_row(S: SimplicialPoset, coeff: Coefficients, root: str | None):
    # the reduced Betti numbers and torsion of root's link (of the whole
    # poset for None), read off the Smith forms its up-set keeps on S
    cache = S._cache.setdefault("snf", {})
    if root not in cache:
        cache[root] = _up_set_forms(S, root)
    f, snfs = cache[root]
    # rank[i] is the rank of D_(i-1) : C_(i-1) -> C_(i-2), zero off the complex
    rank = [0, *(snf.rank_over(coeff) for snf in snfs)] + [0] * (len(f) - len(snfs))
    reduced = tuple(f[i] - rank[i] - rank[i + 1] for i in range(len(f)))
    torsion: tuple[tuple[int, ...], ...] = ()
    if coeff == INTEGERS:
        torsion = tuple(tuple(d for d in snf.factors if d > 1) for snf in snfs)
        torsion += ((),) * (len(f) - len(snfs))
    return reduced, torsion


def reduced_betti(
    S: SimplicialPoset, coeff: Coefficients, root: str | None = None
) -> BettiVector:
    """Reduced Betti numbers of the realization, padded to degree n-1.

    The augmentation is part of the complex, so b~_0 counts components
    minus one and the empty poset has b~_(-1) = 1.  With ``root`` the
    numbers are those of the root's link, whose reduced homology is that
    of the complex restricted to the faces above the root, the root
    taking the place of the minimal element (Munkres, Lemma 63.1).  Read
    off the Smith forms the poset keeps, so every ring shares them; a
    root of codimension <= 2 needs no elimination, only its covers and
    their covers.  ``_link_table`` holds the links of every face at once.
    """
    _require_poset(S)
    _require_ring(coeff)
    if root is not None and not isinstance(root, str):
        raise InvalidArgument(f"root {shown(root)} is not a face id")
    return BettiVector(coeff, *_link_row(S, coeff, root))


def _link_table(S: SimplicialPoset, coeff: Coefficients) -> tuple[tuple, ...]:
    """The link homology of every face in (rank, id) order, built once per
    (poset, ring) and kept on the poset: one row (id, rank, reduced,
    torsion) per face, as ``reduced_betti(S, coeff, root=id)`` gives them
    for its link in degrees -1..n-1-rank.  After the one d.d = 0 check, a
    face of codimension <= 2 reads its row off the cover map in closed
    form; a deeper one reads it off its up-set's Smith forms."""
    _require_poset(S)
    _require_ring(coeff)
    table = S._cache.get(("links", coeff))
    if table is None:
        _incidence(S)  # checks d.d = 0 before any row is read
        cofaces, n, over_z, rows = S._cofaces(), S.n, coeff == INTEGERS, []
        for e in S:
            r = e.rank
            if n - r > 2:
                rows.append((e.id, r, *_link_row(S, coeff, e.id)))
            else:
                reduced = _low_row(cofaces, e.id)[0][:n - r + 1]
                rows.append((e.id, r, reduced, ((),) * len(reduced) if over_z else ()))
        table = S._cache["links", coeff] = tuple(rows)
    return table
