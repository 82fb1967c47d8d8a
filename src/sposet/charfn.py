"""Characteristic functions: primitive integer vectors on the vertices.

An assignment is valid on a simplex over the integers when the matrix
of its vertices' vectors has all Smith invariant factors equal to one
(the subtorus inclusion is injective and splits); over a field, full
row rank suffices.  By determinantal divisors, a rank-k simplex is
valid exactly when its k x k minors have gcd 1 over Z, and when one of
them is nonzero over Q, or nonzero mod p over F_p.  For n <= 3 the
minors are written out: the entries, ad - bc or the cross product, and
the triple product.  For larger n a simplex of rank n is judged by its
one determinant, taken by fraction-free elimination (Bareiss, Math.
Comp. 1968), and any other by its Smith form.  Validity passes down to
faces: part of a basis of a direct summand of Z^n spans a direct
summand, and part of an independent set over Q or F_p is independent.
So a face with a valid coface is valid, and only the faces with none
are judged.  A failing check takes one more Smith form, for its first
failure's invariant factors.  The rational sampler judges each attempt
by its maximal faces alone, by the same rule, and replays its seed
through the full check only to name the worst simplex once its budget
runs out.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Mapping

from .errors import (
    BudgetExhausted,
    InternalError,
    InvalidArgument,
    InvalidCharFn,
    MissingVertexAssignment,
    NonPrimitiveVector,
    WrongVectorLength,
    shown,
)
from .homology import Coefficients, RATIONALS, _require_ring, smith_normal_form
from .poset import SimplicialPoset, _require_poset, is_int, is_name


@dataclass(frozen=True)
class CharFunction:
    """Vertex name (a str, or an int taken as its str) -> primitive length-n vector.

    Two keys with one str, such as ``1`` and ``"1"``, are refused.
    """

    n: int
    assignment: Mapping[str, tuple[int, ...]]

    def __post_init__(self):
        if not is_int(self.n):
            raise InvalidCharFn(f"n = {shown(self.n)} is not an integer")
        if self.n < 0:
            raise InvalidCharFn(f"n = {shown(self.n)} is negative")
        if not isinstance(self.assignment, Mapping):
            raise InvalidCharFn(f"assignment {shown(self.assignment)} is not a mapping")
        clean = {}
        for vid, vec in self.assignment.items():
            if not is_name(vid):
                raise InvalidCharFn(f"vertex {shown(vid)} is not a str or int name")
            if not isinstance(vec, (tuple, list)):
                raise InvalidCharFn(f"vertex {shown(vid)}: {shown(vec)} is not a tuple or list")
            vec = tuple(vec)
            if not all(map(is_int, vec)):
                x = next(x for x in vec if not is_int(x))
                raise InvalidCharFn(f"vertex {shown(vid)}: entry {shown(x)} is not an integer")
            if len(vec) != self.n:
                raise WrongVectorLength(
                    f"vertex {shown(vid)}: vector has length {len(vec)}, expected {shown(self.n)}"
                )
            if gcd(*vec) != 1:
                raise NonPrimitiveVector(
                    f"vertex {shown(vid)}: {shown(vec)} is not primitive"
                )
            if str(vid) in clean:
                raise InvalidCharFn(f"vertex {shown(vid)}: name {str(vid)!r} is given twice")
            clean[str(vid)] = vec
        object.__setattr__(self, "assignment", clean)

    def vector(self, vid: str) -> tuple[int, ...]:
        try:
            return self.assignment[vid]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise MissingVertexAssignment(f"no vector for vertex {shown(vid)}") from None


@dataclass(frozen=True)
class CharCheckReport:
    coeff: Coefficients
    passed: bool
    verdicts: tuple[tuple[str, bool], ...]
    first_failure: tuple[str, tuple[int, ...]] | None


def _determinant(rows: list[tuple[int, ...]]) -> int:
    # Bareiss elimination: every entry stays an integer minor, so each
    # division is exact; a zero pivot swaps in a lower row or ends at 0
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        piv = m[k][k]
        for row in m[k + 1 :]:
            row[k + 1 :] = [(a * piv - row[k] * b) // prev
                            for a, b in zip(row[k + 1 :], m[k][k + 1 :])]
        prev = piv
    return sign * m[-1][-1] if m else 1


def _minors(rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    # the k x k minors of k <= n <= 3 vectors of length n, up to sign
    if len(rows) == 1:
        return rows[0]
    if len(rows[0]) == 2:
        (a, b), (c, d) = rows
        return (a * d - b * c,)
    (a, b, c), (d, e, f), *rest = rows
    cross = (b * f - c * e, c * d - a * f, a * e - b * d)
    if not rest:
        return cross
    (g, h, i), = rest
    return (g * cross[0] + h * cross[1] + i * cross[2],)


def _judge(rows: list[tuple[int, ...]], n: int, coeff: Coefficients) -> bool:
    # the one validity rule for a face of rank k = len(rows) in ambient
    # rank n: its minors for n <= 3, its determinant for k = n >= 4, its
    # Smith form otherwise
    k = len(rows)
    if n > 3 and k < n:
        snf = smith_normal_form(rows)
        return snf.rank_over(coeff) == k if coeff.is_field else snf.factors == (1,) * k
    minors = _minors(rows) if n <= 3 else (_determinant(rows),)
    p = coeff.p
    return (any(m % p if p else m for m in minors) if coeff.is_field
            else gcd(*minors) == 1)


def check(S: SimplicialPoset, lam: CharFunction, coeff: Coefficients) -> CharCheckReport:
    """Per-simplex validity of the assignment over one coefficient ring.

    The vectors must have length ``S.n``.  Walks the faces from the top
    rank down; a facet of a valid face is valid, so only the faces with
    no valid coface are judged: the maximal faces and the faces under
    failing ones.  For n <= 3 a face is judged by its minors, written
    out; for larger n a face of rank n is judged by its determinant and
    any other by its Smith form.  The verdicts, in (rank, id) order, are
    as if each face were judged on its own.  The first failure carries
    its invariant factors from one Smith form of its own, taken after the
    walk; for n >= 4 a first failure below rank n so takes two.
    """
    _require_poset(S)
    _require_ring(coeff)
    if not isinstance(lam, CharFunction):
        raise InvalidArgument(f"lam is a {type(lam).__name__}, not a CharFunction")
    if lam.n != S.n:
        raise WrongVectorLength(
            f"vectors of length {shown(lam.n)} on a poset of ambient rank {S.n}")
    # looked up in (rank, id) order, so the first missing vertex is the one named
    vectors = {v: lam.vector(v) for e in S.by_rank(1) for v in e.vertices}
    valid = set()
    for e in reversed(S.elements()):
        if e.id not in valid:
            if not _judge([vectors[v] for v in e.vertices], S.n, coeff):
                continue
            valid.add(e.id)
        valid.update(e.facets)
    verdicts = tuple((e.id, e.id in valid) for e in S.elements())
    bad = next((eid for eid, ok in verdicts if not ok), None)
    first_failure = None if bad is None else (bad, smith_normal_form(
        [vectors[v] for v in S.element(bad).vertices]).factors)
    return CharCheckReport(coeff, bad is None, verdicts, first_failure)


def _seeded_assignments(S: SimplicialPoset, n: int, seed: int, bound: int, budget: int):
    # the sampler's draws: ``budget`` assignments, each a primitivized
    # vector per vertex name in (rank, id) order, from one seeded stream
    randint = random.Random(seed).randint
    vertices = dict.fromkeys(v for e in S.by_rank(1) for v in e.vertices)
    for _ in range(budget):
        assignment = {}
        for vid in vertices:
            while True:
                vec = tuple([randint(-bound, bound) for _ in range(n)])
                if any(vec):
                    break
            g = gcd(*vec)
            assignment[vid] = vec if g == 1 else tuple(x // g for x in vec)
        yield assignment


def random_q_charfn(
    S: SimplicialPoset, n: int, seed: int, bound: int, budget: int = 10_000
) -> CharFunction:
    """Seeded rejection sampling for an assignment valid over Q.

    Draws integer vectors with entries in [-bound, bound], primitivizes
    them, one per vertex name in (rank, id) order, and retries whole
    assignments until one is valid over Q.  Validity passes down to
    faces, so an attempt is judged by its maximal faces alone, by the
    rule ``check`` uses, and is dropped at the first dependent one.
    Deterministic for a fixed seed.  After ``budget`` failed attempts
    the seed is replayed, each attempt through the full ``check``, to
    name the simplex that failed first most often in BudgetExhausted;
    so the error costs about one more pass than the attempts themselves.
    """
    _require_poset(S)
    for name, value in (("n", n), ("seed", seed), ("bound", bound), ("budget", budget)):
        if not is_int(value):
            raise InvalidArgument(f"{name} = {shown(value)} is not an integer")
    if n != S.n:
        raise WrongVectorLength(
            f"vectors of length {shown(n)} need a poset of ambient rank {shown(n)}, not {S.n}"
        )
    if bound < 1:
        raise NonPrimitiveVector(
            f"bound {shown(bound)} leaves no primitive vectors: it must be >= 1"
        )
    if budget < 1:
        raise InvalidArgument(f"budget {shown(budget)} allows no attempt: it must be >= 1")
    maximal = [S.element(eid).vertices for eid in S.maximal_ids()]
    for assignment in _seeded_assignments(S, n, seed, bound, budget):
        if all(_judge([assignment[v] for v in top], n, RATIONALS) for top in maximal):
            return CharFunction(n, assignment)
    fail_counts: dict[str, int] = {}
    for assignment in _seeded_assignments(S, n, seed, bound, budget):
        report = check(S, CharFunction(n, assignment), RATIONALS)
        if report.passed:
            raise InternalError("an assignment failed on a maximal face but passed check")
        bad = report.first_failure[0]
        fail_counts[bad] = fail_counts.get(bad, 0) + 1
    worst = max(sorted(fail_counts), key=fail_counts.get)
    raise BudgetExhausted(
        f"no valid assignment in {budget} attempts; simplex {worst!r} "
        f"failed {fail_counts[worst]} times",
        failing_simplex=worst,
        attempts=budget,
    )
