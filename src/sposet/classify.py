"""Buchsbaum / Cohen-Macaulay / homology-manifold tests via link homology.

All verdicts are rank-level: a poset of ambient rank n is Buchsbaum over
a ring when every proper link has reduced homology concentrated in its
top degree n - 1 - |I|; Cohen-Macaulay additionally concentrates the
poset's own homology in top degree, and the homology-manifold verdict
asks every link's top homology to have dimension exactly one.  Over the
integers "vanishing" includes torsion.  Each link row is read from the
poset's own chain complex restricted to the faces above the face.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConnected, NotPure
from .homology import BettiVector, Coefficients, INTEGERS, reduced_betti
from .poset import SimplicialPoset, validate_stats

# (element id or None for the poset itself, degree, offending Betti rank)
Witness = tuple[str | None, int, int]
LinkTable = tuple[tuple[str, BettiVector], ...]


@dataclass(frozen=True)
class Classification:
    buchsbaum: bool
    cohen_macaulay: bool
    homology_manifold: bool
    orientable_over_field: bool
    witnesses: tuple[Witness, ...]


def _require_pure(S: SimplicialPoset) -> None:
    # the one purity gate of every link-based and face-vector computation
    if not validate_stats(S).pure:
        raise NotPure(f"{S.name or 'poset'} is not pure")


def _link_walk(S: SimplicialPoset, coeff: Coefficients) -> LinkTable:
    # Every link-based verdict and count reads this one walk of reduced
    # link homology per face in (rank, id) order, computed once per
    # (poset, ring) and kept on the poset.
    key = ("link_betti", coeff)
    walk = S._cache.get(key)
    if walk is None:
        walk = tuple((e.id, reduced_betti(S, coeff, root=e.id)) for e in S.elements())
        S._cache[key] = walk
    return walk


def buchsbaum_witnesses(
    S: SimplicialPoset, coeff: Coefficients, n: int | None = None
) -> tuple[Witness, ...]:
    """Entries where some link's homology sits off its top degree.

    ``n`` defaults to the poset's own ambient rank; passing a larger
    value checks the poset against that rank instead, which also flags
    wrong-dimensional or non-pure input (their maximal faces have empty
    links away from the expected top degree).  No connectivity gate.
    """
    if n is None:
        n = S.n
    out: list[Witness] = []
    for eid, lk in _link_walk(S, coeff):
        top = n - 1 - S.element(eid).rank
        for deg in lk.degrees():
            if deg == top:
                continue
            if lk.degree(deg) != 0 or lk.torsion_in(deg):
                out.append((eid, deg, lk.degree(deg)))
    return tuple(out)


def classify(S: SimplicialPoset, coeff: Coefficients) -> Classification:
    """Full classification of a pure connected poset over one ring.

    Witnesses collect every offending (face, degree, rank) triple for
    the Buchsbaum, Cohen-Macaulay and homology-manifold tests; the list
    is empty exactly when all three verdicts hold.  Orientability over
    the ring (top homology of dimension one) is reported but never
    witnessed, since failing it is not a defect of the poset.
    """
    _require_pure(S)
    if not validate_stats(S).connected:
        raise NotConnected(f"{S.name or 'poset'} is not connected")

    n = S.n
    witnesses: list[Witness] = list(buchsbaum_witnesses(S, coeff))
    buchsbaum = not witnesses

    own = reduced_betti(S, coeff)
    for deg in own.degrees():
        if deg == n - 1:
            continue
        if own.degree(deg) != 0 or own.torsion_in(deg):
            witnesses.append((None, deg, own.degree(deg)))
    cohen_macaulay = buchsbaum and not any(w[0] is None for w in witnesses)

    before = len(witnesses)
    for eid, lk in _link_walk(S, coeff):
        top = n - 1 - S.element(eid).rank
        val = lk.degree(top)
        if val != 1 or (coeff == INTEGERS and lk.torsion_in(top)):
            witnesses.append((eid, top, val))
    homology_manifold = buchsbaum and len(witnesses) == before

    orientable = own.degree(n - 1) == 1
    if coeff == INTEGERS and own.torsion_in(n - 1):
        orientable = False

    return Classification(
        buchsbaum=buchsbaum,
        cohen_macaulay=cohen_macaulay,
        homology_manifold=homology_manifold,
        orientable_over_field=orientable,
        witnesses=tuple(witnesses),
    )
