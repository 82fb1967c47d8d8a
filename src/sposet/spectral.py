"""Rank tables for torus quotient constructions X = (Q x T^n) / ~.

Two input kinds share one engine.  "cone": Q is the cone over a
Buchsbaum poset S with the dual face structure, so every relative rank
comes from the reduced homology of S shifted by one.  "manifold": Q is
an orientable manifold with corners whose proper faces are acyclic;
its relative homology follows from Poincare-Lefschetz duality and the
connecting ranks from exactness, given the dimensions of H_*(Q) and
the ranks iota of H_*(boundary) -> H_*(Q).

The engine never builds the space: every page of the orbit-type
spectral sequence in the acyclic-proper-face regime is determined by
rank bookkeeping alone.  The only nontrivial differentials run from
column n; the differential fed by H_q1(Q, bd Q) tensor Lambda_q2 fires
at page n - q1 + 1 with rank  rank(delta_q1) * C(n, q2)  whenever its
target column q1 - 1 is at or below the diagonal.  Characteristic
functions are consumed only through their validity: all ranks are
independent of the particular valid choice.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import comb

from . import charfn as charfn_mod
from .charfn import CharFunction
from .classify import buchsbaum_witnesses, classify
from .errors import (
    InconsistentBundle,
    InternalError,
    InvalidArgument,
    InvalidCharFn,
    NonFieldCoefficients,
    NotBuchsbaum,
    NotConnected,
    SposetError,
    shown,
)
from .facevec import face_vector_report
from .homology import Coefficients, _require_ring, reduced_betti
from .poset import MAX_RANK, SimplicialPoset, is_int

CONE = "cone"
MANIFOLD = "manifold"


@dataclass(frozen=True)
class QuotientProblem:
    """One quotient problem; Q is always orientable.

    The only constructor: built directly or by ``dataclasses.replace``,
    a problem meets the same checks, in this order.  A manifold gives
    betti_q and iota; a list is taken as its tuple.  n is an int, the
    ring a field, the poset Buchsbaum for rank n (this subsumes purity
    and dimension), the kind known, the poset's rank n.  A cone's rank
    data default to (1, 0, ..., 0), the only ones it takes; a manifold's
    are n + 1 ints with betti_q[0] = 1 and betti_q[n] = 0.  Then the
    rank data must be exact, and the characteristic function, if any,
    valid.  The check keeps the rank data and what it derives:
    ``relative``, dim H_i(Q, bd Q), is b~_(i-1)(S) for a cone and
    betti_q[n-i] for a manifold by duality; ``delta``, the ranks of the
    connecting maps, is relative[i] - betti_q[i] + iota[i] by exactness;
    ``boundary`` is dim H_p(bd Q) for p < n.  Exactness is then one pass
    down the sequence: 0 <= delta[i] <= min(relative[i], b~_(i-1)(S))
    for i <= n, and delta[i] + iota[i-1] = dim H_(i-1)(bd Q) for
    1 <= i <= n + 1, as delta[n+1] = 0 and H_n(bd Q) = 0, bd Q having
    dimension n - 1.  Every bound on iota follows from these.
    """

    kind: str
    poset: SimplicialPoset
    n: int
    coeff: Coefficients
    charfn: CharFunction | None = None
    betti_q: tuple[int, ...] | None = None
    iota: tuple[int, ...] | None = None
    relative: tuple[int, ...] = field(init=False, compare=False)
    delta: tuple[int, ...] = field(init=False, compare=False)
    boundary: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        n, coeff = self.n, self.coeff
        if self.kind == MANIFOLD and (self.betti_q is None or self.iota is None):
            raise InconsistentBundle("manifold problems need betti_q and iota")
        betti_q, iota = (tuple(v) if isinstance(v, list) else v
                         for v in (self.betti_q, self.iota))
        if not is_int(n):
            raise InvalidArgument(f"torus rank n = {shown(n)} is not an integer")
        _require_ring(coeff)
        if not coeff.is_field:
            raise NonFieldCoefficients("quotient rank tables need field coefficients")

        wits = buchsbaum_witnesses(self.poset, coeff, n=n)
        if wits:
            # one line for any poset: the face count and the first three ids
            faces = sorted({w[0] for w in wits})
            named = ", ".join(faces[:3]) + (", ..." if len(faces) > 3 else "")
            count = f"{len(faces)} face" + ("s" if len(faces) > 1 else "")
            raise NotBuchsbaum(
                f"links of {count} ({named}) are not concentrated in top degree "
                f"for rank {shown(n)}",
                witnesses=wits,
            )

        if self.kind not in (CONE, MANIFOLD):
            raise InvalidArgument(f"unknown problem kind {shown(self.kind)}")
        if self.poset.n != n:
            raise InconsistentBundle(
                f"poset ambient rank {self.poset.n} does not match problem rank {shown(n)}"
            )
        bt = reduced_betti(self.poset, coeff).degree
        if self.kind == CONE:
            trivial = (1,) + (0,) * n
            betti_q, iota = (trivial if v is None else v for v in (betti_q, iota))
            if betti_q != trivial or iota != trivial:
                raise InconsistentBundle("cone problems fix betti_q = iota = (1,0,...,0)")
            relative = tuple(bt(i - 1) for i in range(n + 1))
        else:
            for label, vec in (("betti_q", betti_q), ("iota", iota)):
                if not isinstance(vec, tuple):
                    raise InconsistentBundle(f"{label} {shown(vec)} is not a tuple of integers")
                for x in vec:
                    if not is_int(x):
                        raise InconsistentBundle(f"{label} entry {shown(x)} is not an integer")
            if len(betti_q) != n + 1 or len(iota) != n + 1:
                raise InconsistentBundle(f"betti_q and iota must have length {n + 1}")
            if betti_q[0] != 1:
                raise InconsistentBundle("Q is connected, so betti_q[0] must be 1")
            if betti_q[n] != 0:
                raise InconsistentBundle("Q has nonempty boundary, so betti_q[n] must be 0")
            relative = tuple(betti_q[n - i] for i in range(n + 1))

        boundary = tuple(bt(p) + (1 if p == 0 else 0) for p in range(n))
        delta = tuple(relative[i] - betti_q[i] + iota[i] for i in range(n + 1))
        for i, d in enumerate(delta + (0,)):
            if i <= n and not 0 <= d <= min(relative[i], bt(i - 1)):
                raise InconsistentBundle(f"rank delta_{i} = {shown(d)} violates exactness bounds")
            # exactness at H_(i-1)(bd Q), up to H_n(bd Q) = 0: im delta_i = ker iota_(i-1)
            dim = boundary[i - 1] if 0 < i <= n else 0
            if i and d + iota[i - 1] != dim:
                raise InconsistentBundle(
                    f"rank delta_{i} + rank iota_{i - 1} = {shown(d + iota[i - 1])} "
                    f"!= {dim} = dim H_{i - 1}(bd Q)"
                )

        if self.charfn is not None:
            try:
                report = charfn_mod.check(self.poset, self.charfn, coeff)
            except SposetError as exc:
                raise InvalidCharFn(str(exc)) from exc
            if not report.passed:
                bad, factors = report.first_failure
                raise InvalidCharFn(
                    f"simplex {bad!r} fails over {coeff}: invariant factors {factors}"
                )
        for name, value in (("betti_q", betti_q), ("iota", iota), ("relative", relative),
                            ("delta", delta), ("boundary", boundary)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PageTable:
    """Sparse (p, q) -> rank table for torus rank n.

    Refuses a rank n that is no int in 0..MAX_RANK and cells that are
    not a dict from pairs of ints to ints >= 0, however it was built,
    and keeps only the nonzero cells; its totals are the sums along the
    antidiagonals p + q = 0, ..., 2n of those cells.
    """

    cells: dict[tuple[int, int], int]
    n: int

    def __post_init__(self):
        n, cells = self.n, self.cells
        if not (is_int(n) and 0 <= n <= MAX_RANK):
            raise InvalidArgument(f"table rank n = {shown(n)} is not an int in 0..{MAX_RANK}")
        if not isinstance(cells, dict):
            raise InvalidArgument(f"table cells {shown(cells)} are not a dict")
        kept = {}
        for cell, v in cells.items():
            # exact ints: a bool is none, and no cell costs a call
            if not (type(cell) is tuple and len(cell) == 2 and type(v) is int and v >= 0
                    and type(cell[0]) is int and type(cell[1]) is int):
                raise InvalidArgument(
                    f"table cell {shown(cell)}: {shown(v)} is not a pair of ints to a rank")
            if v:
                kept[cell] = v
        object.__setattr__(self, "cells", kept)

    @property
    def totals(self) -> tuple[int, ...]:
        sums = [0] * (2 * self.n + 1)
        for (p, q), v in self.cells.items():
            if 0 <= p + q <= 2 * self.n:
                sums[p + q] += v
        return tuple(sums)

    def rank(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rank(q, q) for q in range(self.n + 1))

    def to_json(self) -> dict[str, int]:
        return {f"{p},{q}": v for (p, q), v in sorted(self.cells.items())}


@dataclass(frozen=True)
class Tables:
    """Every rank table of one quotient problem, as computed by solve;
    refuses a field that is not a PageTable."""

    e1trunc: PageTable
    ea1: PageTable
    ea2: PageTable
    eainf: PageTable
    bigraded: PageTable

    def __post_init__(self):
        for f in fields(self):
            table = getattr(self, f.name)
            if not isinstance(table, PageTable):
                raise InvalidArgument(f"table {f.name} is {shown(table)}, not a PageTable")

    def to_json(self) -> dict[str, object]:
        out = {f.name: getattr(self, f.name).to_json() for f in fields(self)}
        out["totals"] = list(self.bigraded.totals)
        return out


@dataclass(frozen=True)
class VerifyReport:
    checks: dict[str, bool]
    skipped: dict[str, str]
    notes: dict[str, object]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def e1_diagonal_hprime_form(prob: QuotientProblem) -> tuple[int, ...]:
    """Diagonal of the modified first page via reversed h'-numbers.

    Valid when the poset is a homology manifold orientable over the
    field: h'_(n-q) for q <= n-2, then h'_1 + n, then the top relative
    dimension.  Must agree entrywise with the ea1 diagonal of solve.
    """
    if not isinstance(prob, QuotientProblem):
        raise InvalidArgument(f"{shown(prob)} is not a QuotientProblem")
    n, hp = prob.n, face_vector_report(prob.poset, prob.coeff).hprime
    diag = [hp[n - q] for q in range(n - 1)]
    if n >= 1:
        diag.append(hp[1] + n)
    diag.append(prob.relative[n])
    return tuple(diag)


def solve(prob: QuotientProblem) -> Tables:
    """Every rank table of the quotient, from one pass over its ranks.

    Reads the ranks the problem derived and checked when it was built,
    and checks nothing of it again.  ea1 holds boundary homology tensor
    exterior forms off the diagonal, relative homology stacked in column
    n, and the closed-form diagonal: entry q < n is h_q plus C(n, q)
    times the alternating partial Betti sum, entry n the top relative
    dimension.  Later pages subtract the differential ranks from source
    and target cells; page two applies exactly the column-n
    differentials of page one (those fed by the top relative group).

    The bigraded table holds the relative groups of Q tensor exterior
    forms above the diagonal, the absolute ones below it, and on the
    diagonal the surviving eainf entry plus the relative contribution,
    with the corner (n, n) equal to the top relative dimension.  e1trunc
    is the first page of the truncated sequence: C(p, q) * ft_(n-p-1).
    """
    if not isinstance(prob, QuotientProblem):
        raise InvalidArgument(f"{shown(prob)} is not a QuotientProblem")
    n, relative, delta = prob.n, prob.relative, prob.delta
    bt = reduced_betti(prob.poset, prob.coeff).degree
    faces = face_vector_report(prob.poset, prob.coeff)

    cells: dict[tuple[int, int], int] = {}
    for p in range(n):
        for q in range(p):
            cells[(p, q)] = prob.boundary[p] * comb(n, q)
    for q in range(n):
        cells[(q, q)] = faces.h[q] + comb(n, q) * sum(
            (-1) ** (p + q) * bt(p) for p in range(q + 1))
    for q in range(-n, n + 1):
        cells[(n, q)] = sum(
            relative[q1] * comb(n, q + n - q1)
            for q1 in range(max(0, q), n + 1)
            if 0 <= q + n - q1 <= n
        )

    # every source (n, q1 + q2 - n) and target (q1 - 1, q2) is a cell above
    ea2 = dict(cells)
    eainf = dict(cells)
    for q1 in range(1, n + 1):
        page = n - q1 + 1
        for q2 in range(q1):
            rk = delta[q1] * comb(n, q2)
            for table in (eainf,) if page > 1 else (ea2, eainf):
                table[(n, q1 + q2 - n)] -= rk
                table[(q1 - 1, q2)] -= rk

    for label, table in (("ea2", ea2), ("eainf", eainf)):
        for cell, v in table.items():
            if v < 0:
                raise InternalError(f"negative rank at {cell} on page {label}")

    big: dict[tuple[int, int], int] = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i > j:
                big[(i, j)] = prob.betti_q[i] * comb(n, j)
            elif i < j:
                big[(i, j)] = relative[i] * comb(n, j)
            elif i < n:
                big[(i, j)] = eainf[(i, i)] + relative[i] * comb(n, i)
            else:
                big[(i, j)] = relative[n]

    e1trunc = {(p, q): comb(p, q) * faces.ft[n - p - 1]
               for p in range(n) for q in range(p + 1)}

    return Tables(
        e1trunc=PageTable(e1trunc, n),
        ea1=PageTable(cells, n),
        ea2=PageTable(ea2, n),
        eainf=PageTable(eainf, n),
        bigraded=PageTable(big, n),
    )


def verify(prob: QuotientProblem, tables: Tables) -> VerifyReport:
    """Cross-checks of solved tables against closed forms and dualities.

    Refuses tables of another torus rank than the problem's.
    euler_conserved: the signed cell sum of the first page equals the
    signed total Betti sum.  pages_match_closed_forms: summing the last
    page along antidiagonals reproduces the bigraded totals.  Cone
    problems compare the last-page diagonal with h'', which no table
    cell can make negative, so a negative h'' fails that too; manifold
    problems over an orientable homology manifold compare the page-two
    diagonal with reversed h' and check the (i, j) <-> (n-i, n-j)
    symmetry.  Every report skips lambda_independent: ``solve`` never
    reads the characteristic function, so comparing its tables across
    two of them could not fail.  A first page built from the
    characteristic function would make it a real check.
    """
    if not (isinstance(prob, QuotientProblem) and isinstance(tables, Tables)):
        raise InvalidArgument(
            f"verify takes a QuotientProblem and its Tables, not "
            f"{type(prob).__name__} and {type(tables).__name__}"
        )
    n = prob.n
    for f in fields(tables):
        table = getattr(tables, f.name)
        if table.n != n:
            raise InvalidArgument(
                f"table {f.name} is for torus rank {shown(table.n)}, not the problem's {n}")
    faces = face_vector_report(prob.poset, prob.coeff)
    checks: dict[str, bool] = {}
    skipped: dict[str, str] = {}

    big = tables.bigraded
    chi_page = sum(
        (v if (p + q) % 2 == 0 else -v) for (p, q), v in tables.ea1.cells.items()
    )
    chi_x = sum((v if k % 2 == 0 else -v) for k, v in enumerate(big.totals))
    checks["euler_conserved"] = chi_page == chi_x

    checks["pages_match_closed_forms"] = tables.eainf.totals == big.totals

    if prob.kind == CONE:
        checks["diagonal_is_h_double"] = tables.eainf.diagonal() == faces.hdoubleprime
    else:
        try:
            cls = classify(prob.poset, prob.coeff)
        except NotConnected:
            cls = None
        if cls is not None and cls.homology_manifold and cls.orientable_over_field:
            checks["diagonal_is_h_prime"] = tables.ea2.diagonal() == tuple(
                faces.hprime[n - q] for q in range(n + 1)
            ) and tables.ea1.diagonal() == e1_diagonal_hprime_form(prob)
        else:
            skipped["diagonal_is_h_prime"] = (
                "poset is not an orientable homology manifold over this field"
            )
        # over the nonzero cells: a pair of zeros is always symmetric
        checks["bigraded_duality"] = all(
            v == big.rank(n - i, n - j) for (i, j), v in big.cells.items())

    skipped["lambda_independent"] = (
        "the rank tables are not computed from the characteristic function"
    )

    notes = {"chi_x": chi_x, "top_face_count": faces.f[n],
             "chi_x_equals_top_face_count": chi_x == faces.f[n]}
    return VerifyReport(checks=checks, skipped=skipped, notes=notes)
