"""Simplicial posets with explicit Boolean face lattices.

A simplicial poset is a finite poset with an implicit minimal element
whose lower intervals are Boolean lattices.  Unlike an abstract
simplicial complex, several faces may share one vertex set, so faces
are identified by explicit ids and carry an ordered facet list:
position j holds the face obtained by omitting the j-th vertex of the
sorted vertex list.  That ordering pins down the boundary signs used
by the homology backend.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import factorial
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DanglingFaceRef,
    EmptyInput,
    InvalidArgument,
    NonBooleanInterval,
    PosetValidationError,
    RankMismatch,
    UnknownElement,
    shown,
)

# Caps the ambient rank n, the length of the face and h-vectors; no face
# comes near it, since a rank-k face brings 2**k - 1 faces with it.
MAX_RANK = 64
# Caps the faces from_facets enumerates, 2**k - 1 per facet of k vertices,
# so one large facet is refused before it exhausts memory.
MAX_FACES = 2**18
# the types of a facet whose names are all strs, as from_facets compares them
_STR = frozenset((str,))


class SimplexElem(NamedTuple):
    """One face: sorted vertices plus facet ids in omitted-vertex order.

    Rank-1 faces have an empty facet list; their unique codimension-one
    face is the implicit minimal element, which is never stored.  A named
    tuple, so also equal to its plain ``(id, vertices, facets)`` tuple.
    """

    id: str
    vertices: tuple[str, ...]
    facets: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class PosetStats:
    dim: int
    pure: bool
    connected: bool
    f: tuple[int, ...]


class SimplicialPoset:
    """Finite poset whose lower intervals are Boolean lattices.

    Instances are immutable once built and safe to share; construct via
    :func:`from_face_lattice` or :func:`from_facets`, which validate.  The
    constructor sorts the faces once into one map from each rank present,
    ascending, to its faces in id order; ``by_rank``, ``dim`` and the
    f-vector read it, and its concatenation, every face in (rank, id)
    order, is what iteration, equality and hashing see.  ``n`` is the
    ambient rank (``dim + 1`` for pure posets unless overridden).
    """

    __slots__ = ("name", "n", "_elems", "_ranks", "_sorted", "_cache")

    def __init__(self, elements: Mapping[str, SimplexElem], n: int, name: str = ""):
        self._elems = dict(elements)
        self.n = n
        self.name = name
        by_rank: dict[int, list[str]] = {}
        for eid, e in self._elems.items():
            by_rank.setdefault(len(e.vertices), []).append(eid)
        self._ranks = {k: tuple(map(self._elems.__getitem__, sorted(by_rank[k])))
                       for k in sorted(by_rank)}
        self._sorted = tuple(chain.from_iterable(self._ranks.values()))
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, eid: str) -> bool:
        return eid in self._elems

    def __iter__(self):
        return iter(self._sorted)

    def element(self, eid: str) -> SimplexElem:
        try:
            return self._elems[eid]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownElement(f"no element {shown(eid)} in poset {self.name!r}") from None

    def elements(self) -> tuple[SimplexElem, ...]:
        """All faces, sorted by (rank, id)."""
        return self._sorted

    @property
    def dim(self) -> int:
        return max(self._ranks, default=0) - 1

    def by_rank(self, k: int) -> tuple[SimplexElem, ...]:
        """The faces of rank k, in id order."""
        if not is_int(k):
            raise InvalidArgument(f"rank {shown(k)} is not an int")
        return self._ranks.get(k, ())

    def maximal_ids(self) -> tuple[str, ...]:
        cofaces = self._cofaces()
        return tuple(e.id for e in self._sorted if not cofaces[e.id])

    def _cofaces(self) -> dict[str | None, list[SimplexElem]]:
        # the faces covering each face, built once per poset; the vertices
        # cover the implicit minimal element, None
        cofaces = self._cache.get("cofaces")
        if cofaces is None:
            cofaces = self._cache["cofaces"] = {eid: [] for eid in (None, *self._elems)}
            for e in self._sorted:
                for fid in e.facets or (None,):
                    cofaces[fid].append(e)
        return cofaces

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialPoset):
            return NotImplemented
        return self.n == other.n and self._sorted == other._sorted

    def __hash__(self) -> int:
        return hash((self.n, self._sorted))

    def __repr__(self) -> str:
        return (
            f"SimplicialPoset(name={self.name!r}, n={self.n}, "
            f"elements={len(self._elems)}, dim={self.dim})"
        )


def is_int(value) -> bool:
    """An int that is not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_name(value) -> bool:
    """A name as callers may give it: a str, or an int that is not a bool
    and whose decimal form, its str, can be built."""
    try:
        return isinstance(value, str) or is_int(value) and bool(str(value))
    except ValueError:  # more digits than the interpreter converts
        return False


def _require_input(items, name) -> None:
    # the shape guards both builders share, ahead of any read of their input
    if not isinstance(items, Iterable) or isinstance(items, (str, bytes)):
        raise PosetValidationError("", "element-shape", f"{shown(items)} is not a collection")
    if not isinstance(name, str):
        raise InvalidArgument(f"poset name {shown(name)} is not a str")


def _as_elem(raw) -> SimplexElem:
    # a SimplexElem of a str id and tuples of strs, as given once sorted
    if not (isinstance(raw, SimplexElem) and isinstance(raw.vertices, tuple)
            and isinstance(raw.facets, tuple)
            and all(isinstance(x, str) for x in (raw.id, *raw.vertices, *raw.facets))):
        raise PosetValidationError(getattr(raw, "id", "?"), "element-shape",
                                   f"not a SimplexElem of str ids and tuples: {shown(raw)}")
    vertices = tuple(sorted(raw.vertices))
    return raw if vertices == raw.vertices else raw._replace(vertices=vertices)


def from_face_lattice(
    elements: Iterable, n: int | None = None, name: str = ""
) -> SimplicialPoset:
    """Build and validate a simplicial poset from explicit face data.

    Each entry is a SimplexElem with a string id and tuples of string
    vertices and facet ids; anything else is an ``element-shape`` error.
    Raises :class:`DanglingFaceRef`, :class:`RankMismatch` or
    :class:`NonBooleanInterval` naming the offending element when an
    axiom fails, and an ``ambient-rank`` error for an ``n`` that is not
    an int at or above the maximal rank.
    """
    _require_input(elements, name)
    if n is not None and not is_int(n):
        raise PosetValidationError("", "ambient-rank", f"n={shown(n)} is not an integer")
    elems: dict[str, SimplexElem] = {}
    for raw in elements:
        e = _as_elem(raw)
        if e.id in elems:
            raise PosetValidationError(e.id, "unique-ids", "duplicate element id")
        if not e.vertices:
            raise RankMismatch(e.id, "rank", "face with no vertices")
        if len(set(e.vertices)) != len(e.vertices):
            raise RankMismatch(e.id, "rank", "repeated vertex in vertex list")
        elems[e.id] = e

    for e in elems.values():
        k = e.rank
        if k == 1:
            if e.facets:
                raise RankMismatch(
                    e.id, "rank", "a vertex lists facets other than the minimal element"
                )
            continue
        if len(e.facets) != k:
            raise RankMismatch(
                e.id, "rank", f"rank {k} face lists {len(e.facets)} facets"
            )
        if len(set(e.facets)) != k:
            raise NonBooleanInterval(e.id, "boolean", "facet list repeats an id")
        for j, fid in enumerate(e.facets):
            if fid not in elems:
                raise DanglingFaceRef(e.id, "resolvable", f"facet {fid!r} not found")
            want = e.vertices[:j] + e.vertices[j + 1 :]
            if elems[fid].vertices != want:
                raise NonBooleanInterval(
                    e.id,
                    "boolean",
                    f"facet {fid!r} should omit vertex {e.vertices[j]!r}",
                )

    # The simplicial identities d_j d_j' = d_(j'-1) d_j (j < j') make the
    # descent from a face to any subset of its vertices path-independent,
    # which together with the vertex-set conditions above forces every
    # lower interval to be Boolean.
    for e in elems.values():
        if e.rank < 3:
            continue
        for jp in range(1, e.rank):
            upper = elems[e.facets[jp]]
            for j in range(jp):
                lower = elems[e.facets[j]]
                if upper.facets[j] != lower.facets[jp - 1]:
                    raise NonBooleanInterval(
                        e.id, "boolean", "facet maps do not commute"
                    )

    max_rank = max((e.rank for e in elems.values()), default=0)
    if n is None:
        n = max_rank
    if n < max_rank:
        raise PosetValidationError(
            "", "ambient-rank", f"n={shown(n)} below maximal rank {max_rank}"
        )
    if n > MAX_RANK:
        raise PosetValidationError(
            "", "ambient-rank", f"n={shown(n)} above the bound {MAX_RANK}"
        )
    return SimplicialPoset(elems, n, name)


def from_facets(facet_vertex_sets: Iterable[Iterable], name: str = "") -> SimplicialPoset:
    """Face poset of the simplicial complex generated by the given facets.

    Each facet is a collection (not a str) of at most ``MAX_RANK`` distinct
    vertex names, strs or ints, an int taken as its str, so ``1`` and
    ``"1"`` in one facet are a repeat, a ``RankMismatch``; the facets have
    at most ``MAX_FACES`` nonempty subsets in all, counted per facet; the
    first facet at fault raises before the next is read.  Every nonempty
    subset of a facet becomes one face whose id is its sorted vertex names
    joined by commas, so a vertex is named by itself and the result is a
    genuine simplicial complex.  Built rank by rank from the distinct
    sorted facets: the rank-k faces are their k-subsets, and each facet id
    is found by its vertex tuple in the rank below.  Faces made this way
    satisfy every axiom ``from_face_lattice`` checks once no two ids collide.
    """
    _require_input(facet_vertex_sets, name)
    vsets, total = [], 0
    for raw in facet_vertex_sets:
        shaped = type(raw) in (list, tuple) or (
            isinstance(raw, Iterable) and not isinstance(raw, (str, bytes)))
        fs = tuple(raw) if shaped else ()
        all_str = _STR.issuperset(map(type, fs))
        if not shaped or not (all_str or all(map(is_name, fs))):
            raise PosetValidationError(
                "", "element-shape", f"facet {shown(raw)} is not a collection of str or int names")
        vs = set(fs) if all_str else set(map(str, fs))  # an int taken as its str
        if len(vs) < len(fs):
            raise RankMismatch("", "rank", f"facet {shown(raw)} repeats a vertex name")
        if not vs:
            raise EmptyInput("empty facet vertex set")
        if len(vs) > MAX_RANK:
            raise PosetValidationError(
                "", "ambient-rank", f"facet of {len(vs)} vertices above the bound {MAX_RANK}")
        total += (1 << len(vs)) - 1
        if total > MAX_FACES:
            raise PosetValidationError("", "face-count", (
                f"facets with {total} faces counted per facet, above the bound {MAX_FACES}"))
        vsets.append(sorted(vs))
    if not vsets:
        raise EmptyInput("no facets given")

    # below maps each face of the rank below to its id, a vertex by its
    # bare name, as itemgetter returns a single index bare
    facets, elems, below, count = set(map(tuple, vsets)), {}, {}, 0
    top = max(map(len, vsets))
    for k in range(1, top + 1):
        faces = list(set(chain.from_iterable(map(combinations, facets, repeat(k)))))
        ids = list(map(",".join, faces))
        facet_ids = zip(*(
            map(below.__getitem__, map(itemgetter(*(i for i in range(k) if i != j)), faces))
            for j in range(k))) if k > 1 else repeat(())
        elems.update(zip(ids, map(SimplexElem, ids, faces, facet_ids)))
        below = dict(zip(faces if k > 1 else ids, ids))
        count += len(faces)
    if len(elems) != count:
        raise PosetValidationError(
            "", "vertex-name", "vertex names collide under subset naming"
        )
    return SimplicialPoset(elems, top, name)


def barycentric(S: SimplicialPoset) -> SimplicialPoset:
    """Barycentric subdivision: the complex of chains in the poset.

    Vertices are the faces of ``S``; simplices are strictly increasing
    chains.  Always a genuine simplicial complex.
    """
    _require_poset(S)
    if len(S) == 0:
        return SimplicialPoset({}, S.n, name=f"sd({S.name or '?'})")

    # a maximal face of rank k lies over k! maximal chains, each a facet of
    # 2^k - 1 faces: the count from_facets would refuse, made before listing one
    total = sum(factorial(k) * ((1 << k) - 1)
                for k in (S.element(m).rank for m in S.maximal_ids()))
    if total > MAX_FACES:
        raise PosetValidationError("", "face-count", (
            f"facets with {total} faces counted per facet, above the bound {MAX_FACES}"))
    chains: list[tuple[str, ...]] = []

    def grow(chain: list[str]) -> None:
        fs = S.element(chain[-1]).facets
        if not fs:
            chains.append(tuple(chain))
            return
        for fid in fs:
            chain.append(fid)
            grow(chain)
            chain.pop()

    for mid in S.maximal_ids():
        grow([mid])

    out = from_facets(chains, name=f"sd({S.name or '?'})")
    if S.n != out.n:
        out = SimplicialPoset(dict((e.id, e) for e in out.elements()), S.n, out.name)
    return out


def _components(nodes: int, edges) -> int:
    # the components of a graph on this many nodes, by union-find over its
    # edges as node pairs; a root has no parent entry, a find halves its path
    parent: dict = {}
    for a, b in edges:
        while a in parent:
            parent[a] = a = parent.get(parent[a], parent[a])
        while b in parent:
            parent[b] = b = parent.get(parent[b], parent[b])
        if a != b:
            parent[a] = b
            nodes -= 1
    return nodes


def _require_poset(S) -> None:
    # the one type guard of a poset argument, ahead of any read of it
    if not isinstance(S, SimplicialPoset):
        raise InvalidArgument(f"{shown(S)} is not a SimplicialPoset")


def validate_stats(S: SimplicialPoset) -> PosetStats:
    """Dimension, purity, connectivity and the f-vector of a poset.

    Connectivity is judged on the 1-skeleton, the vertices joined by each
    edge's two facets: every face lies over its vertices, which its
    Boolean lower interval joins by edges, so that graph has the
    components of the realization.  Computed once per poset and kept on it.
    """
    _require_poset(S)
    cached = S._cache.get("stats")
    if cached is not None:
        return cached
    maximal_dims = {S.element(m).dim for m in S.maximal_ids()}
    cofaces = S._cofaces()
    vertices = cofaces[None]
    out = PosetStats(
        dim=S.dim,
        pure=len(maximal_dims) <= 1,
        # each edge, met once under each of its vertices, joins its facets
        connected=_components(
            len(vertices), (e.facets for v in vertices for e in cofaces[v.id])) == 1,
        f=(1, *(len(S.by_rank(k)) for k in range(1, S.n + 1))),
    )
    S._cache["stats"] = out
    return out
