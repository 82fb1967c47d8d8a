"""Buchsbaum / Cohen-Macaulay / homology-manifold tests via link homology.

All verdicts are rank-level: a poset of ambient rank n is Buchsbaum over
a ring when every proper link has reduced homology concentrated in its
top degree n - 1 - |I|; Cohen-Macaulay additionally concentrates the
poset's own homology in top degree, and the homology-manifold verdict
asks every link's top homology to have dimension exactly one.  Over the
integers "vanishing" includes torsion.  Every verdict reads one table of
link rows per (poset, ring), built by ``homology._link_table`` from the
poset's own chain complex restricted to the faces above each face; each
check takes one pass over it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConnected, NotPure
from .homology import Coefficients, _link_table, reduced_betti
from .poset import SimplicialPoset, validate_stats

# (element id or None for the poset itself, degree, offending Betti rank)
Witness = tuple[str | None, int, int]


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


def buchsbaum_witnesses(
    S: SimplicialPoset, coeff: Coefficients, n: int | None = None
) -> tuple[Witness, ...]:
    """Entries where some link's homology sits off its top degree.

    ``n`` defaults to the poset's own ambient rank; passing a larger
    value checks the poset against that rank instead, which also flags
    wrong-dimensional or non-pure input (their maximal faces have empty
    links away from the expected top degree).  No connectivity gate.
    """
    table = _link_table(S, coeff)
    if n is None:
        n = S.n
    out: list[Witness] = []
    for eid, rank, reduced, torsion in table:
        top = n - rank  # the index of degree n - 1 - rank
        for i, b in enumerate(reduced):
            if i != top and (b or torsion and torsion[i]):
                out.append((eid, i - 1, b))
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

    # each row ends in its link's top degree, n - 1 - rank
    before = len(witnesses)
    for eid, _, reduced, torsion in _link_table(S, coeff):
        if reduced[-1] != 1 or torsion and torsion[-1]:
            witnesses.append((eid, len(reduced) - 2, reduced[-1]))
    homology_manifold = buchsbaum and len(witnesses) == before

    # torsion is only ever listed over Z
    orientable = own.degree(n - 1) == 1 and not own.torsion_in(n - 1)

    return Classification(
        buchsbaum=buchsbaum,
        cohen_macaulay=cohen_macaulay,
        homology_manifold=homology_manifold,
        orientable_over_field=orientable,
        witnesses=tuple(witnesses),
    )
