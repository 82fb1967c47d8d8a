"""Built-in test corpus: small posets with known invariants.

Entries cover genuine simplicial complexes (simplex boundaries, the
7-vertex torus, the 6-vertex projective plane, the octahedron), proper
simplicial cell posets (two arcs forming a circle, two triangles glued
along their whole boundary) and the two-facet face poset of a cylinder,
which is the standard counterexample for quotient constructions over
non-acyclic faces.  The corpus is one table from name to builder, and
each call builds a fresh poset.
"""
from __future__ import annotations

from itertools import combinations

from .errors import UnknownName, shown
from .poset import SimplexElem, SimplicialPoset, from_face_lattice, from_facets


def _v(i: int) -> str:
    return f"v{i}"


def _boundary_simplex(k: int) -> SimplicialPoset:
    verts = [_v(i) for i in range(1, k + 2)]
    return from_facets(combinations(verts, k), name=f"boundary_simplex({k})")


def _two_arc_circle() -> SimplicialPoset:
    return from_face_lattice(
        [
            SimplexElem("v1", ("v1",), ()),
            SimplexElem("v2", ("v2",), ()),
            SimplexElem("a1", ("v1", "v2"), ("v2", "v1")),
            SimplexElem("a2", ("v1", "v2"), ("v2", "v1")),
        ],
        name="two_arc_circle",
    )


def _triangle_2gon() -> SimplicialPoset:
    vs = ("v1", "v2", "v3")
    elems = [SimplexElem(v, (v,), ()) for v in vs]
    elems += [
        SimplexElem("e12", ("v1", "v2"), ("v2", "v1")),
        SimplexElem("e13", ("v1", "v3"), ("v3", "v1")),
        SimplexElem("e23", ("v2", "v3"), ("v3", "v2")),
        SimplexElem("t1", vs, ("e23", "e13", "e12")),
        SimplexElem("t2", vs, ("e23", "e13", "e12")),
    ]
    return from_face_lattice(elems, name="triangle_2gon")


def _torus7() -> SimplicialPoset:
    # the 7-vertex triangulation of the torus: triangles {i, i+1, i+3}
    # and {i, i+2, i+3} on Z/7
    facets = []
    for i in range(7):
        facets.append({_v(i % 7 + 1), _v((i + 1) % 7 + 1), _v((i + 3) % 7 + 1)})
        facets.append({_v(i % 7 + 1), _v((i + 2) % 7 + 1), _v((i + 3) % 7 + 1)})
    return from_facets(facets, name="torus7")


def _rp2_6() -> SimplicialPoset:
    tris = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
        (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
    ]
    return from_facets([{_v(a), _v(b), _v(c)} for a, b, c in tris], name="rp2_6")


def _octahedron() -> SimplicialPoset:
    facets = [
        {a, b, c}
        for a in ("v1", "v2")
        for b in ("v3", "v4")
        for c in ("v5", "v6")
    ]
    return from_facets(facets, name="octahedron_s2")


def _s1xI_faceposet() -> SimplicialPoset:
    # Face poset of the cylinder S^1 x I: two facets (the boundary
    # circles) meeting nothing.  Valid as a rank-1 poset; it only fails
    # once a quotient problem declares torus rank 2, where its links
    # are not concentrated in top degree (the facets are not acyclic).
    return from_face_lattice(
        [SimplexElem("F1", ("F1",), ()), SimplexElem("F2", ("F2",), ())],
        name="s1xI_faceposet",
    )


_CORPUS = {
    "boundary_simplex(2)": lambda: _boundary_simplex(2),
    "boundary_simplex(3)": lambda: _boundary_simplex(3),
    "boundary_simplex(4)": lambda: _boundary_simplex(4),
    "triangle_2gon": _triangle_2gon,
    "two_arc_circle": _two_arc_circle,
    "torus7": _torus7,
    "rp2_6": _rp2_6,
    "octahedron_s2": _octahedron,
    "s1xI_faceposet": _s1xI_faceposet,
}


def corpus_names() -> tuple[str, ...]:
    return tuple(_CORPUS)


def corpus(name: str) -> SimplicialPoset:
    """Build the named corpus poset; raises UnknownName for any other name."""
    build = _CORPUS.get(name) if isinstance(name, str) else None
    if build is None:
        raise UnknownName(f"no corpus entry {shown(name)} (known: {', '.join(_CORPUS)})")
    return build()


# Betti profiles of the two quotients over the cylinder orbit space,
# one per characteristic function (hand values, Kunneth products of
# S^1 x S^3 and S^1 x S^1 x S^2).  The engine refuses this orbit space,
# so these are documentation constants, not computed output.
CYLINDER_QUOTIENT_PROFILES = {
    "independent circles": (1, 1, 0, 1, 1),
    "equal circles": (1, 2, 2, 2, 1),
}
