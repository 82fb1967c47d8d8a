"""Characteristic functions: primitive integer vectors on the vertices.

An assignment is valid on a simplex over the integers when the matrix
of its vertices' vectors has all Smith invariant factors equal to one
(the subtorus inclusion is injective and splits); over a field, full
row rank suffices.  Validity passes down to faces: part of a basis of a
direct summand of Z^n spans a direct summand, and part of an
independent set over Q or F_p is independent.  So a face with a valid
coface is valid, and only the faces with none take a Smith form.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Mapping

from .errors import (
    BudgetExhausted,
    InvalidArgument,
    InvalidCharFn,
    MissingVertexAssignment,
    NonPrimitiveVector,
    WrongVectorLength,
)
from .homology import Coefficients, INTEGERS, RATIONALS, smith_normal_form
from .poset import SimplicialPoset, is_name


@dataclass(frozen=True)
class CharFunction:
    """Vertex name (a str, or an int taken as its str) -> primitive length-n vector."""

    n: int
    assignment: Mapping[str, tuple[int, ...]]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidCharFn(f"n = {self.n!r} is not an integer")
        if not isinstance(self.assignment, Mapping):
            raise InvalidCharFn(f"assignment {self.assignment!r} is not a mapping")
        clean = {}
        for vid, vec in self.assignment.items():
            if not is_name(vid):
                raise InvalidCharFn(f"vertex {vid!r} is not a str or int name")
            if not isinstance(vec, (tuple, list)):
                raise InvalidCharFn(f"vertex {vid!r}: {vec!r} is not a tuple or list")
            vec = tuple(vec)
            for x in vec:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidCharFn(f"vertex {vid!r}: entry {x!r} is not an integer")
            if len(vec) != self.n:
                raise WrongVectorLength(
                    f"vertex {vid!r}: vector has length {len(vec)}, expected {self.n}"
                )
            if gcd(*(abs(x) for x in vec)) != 1:
                raise NonPrimitiveVector(
                    f"vertex {vid!r}: {vec} is not primitive"
                )
            clean[str(vid)] = vec
        object.__setattr__(self, "assignment", clean)

    def vector(self, vid: str) -> tuple[int, ...]:
        try:
            return self.assignment[vid]
        except KeyError:
            raise MissingVertexAssignment(f"no vector for vertex {vid!r}") from None


@dataclass(frozen=True)
class CharCheckReport:
    coeff: Coefficients
    passed: bool
    verdicts: tuple[tuple[str, bool], ...]
    first_failure: tuple[str, tuple[int, ...]] | None


def check(S: SimplicialPoset, lam: CharFunction, coeff: Coefficients) -> CharCheckReport:
    """Per-simplex validity of the assignment over one coefficient ring.

    Walks the faces from the top rank down.  A facet of a valid face is
    valid, so a Smith form is taken only for the faces with no valid
    coface: the maximal faces and the faces under failing ones.  Every
    failing face is reduced, so the verdicts, in (rank, id) order, and
    the first failure with its invariant factors are as if each face
    were reduced on its own.
    """
    # looked up in (rank, id) order, so the first missing vertex is the one named
    vectors = {v: lam.vector(v) for e in S.by_rank(1) for v in e.vertices}
    valid, failures = set(), {}
    for e in reversed(S.elements()):
        if e.id not in valid:
            snf = smith_normal_form([vectors[v] for v in e.vertices])
            ok = (snf.factors == (1,) * e.rank if coeff == INTEGERS
                  else snf.rank_over(coeff) == e.rank)
            if not ok:
                failures[e.id] = snf.factors
                continue
            valid.add(e.id)
        valid.update(e.facets)
    verdicts = tuple((e.id, e.id in valid) for e in S.elements())
    first_failure = next(((eid, failures[eid]) for eid, ok in verdicts if not ok), None)
    return CharCheckReport(coeff, not failures, verdicts, first_failure)


def random_q_charfn(
    S: SimplicialPoset, n: int, seed: int, bound: int, budget: int = 10_000
) -> CharFunction:
    """Seeded rejection sampling for an assignment valid over Q.

    Draws integer vectors with entries in [-bound, bound], primitivizes
    them, one per vertex name in (rank, id) order, and retries whole
    assignments until the rational check passes.  Deterministic for a
    fixed seed; raises BudgetExhausted with the most frequently failing
    simplex after ``budget`` attempts.
    """
    for name, value in (("n", n), ("seed", seed), ("bound", bound), ("budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidArgument(f"{name} = {value!r} is not an integer")
    if S.dim != n - 1:
        raise WrongVectorLength(
            f"vectors of length {n} need a poset of dimension {n - 1}, not {S.dim}"
        )
    if bound < 1:
        raise NonPrimitiveVector(
            f"bound {bound} leaves no primitive vectors: it must be >= 1"
        )
    if budget < 1:
        raise InvalidArgument(f"budget {budget} allows no attempt: it must be >= 1")
    rng = random.Random(seed)
    vertices = dict.fromkeys(v for e in S.by_rank(1) for v in e.vertices)
    fail_counts: dict[str, int] = {}
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
