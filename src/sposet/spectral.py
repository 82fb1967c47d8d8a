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

from dataclasses import dataclass, fields
from math import comb

from . import charfn as charfn_mod
from .charfn import CharFunction
from .classify import buchsbaum_witnesses, classify
from .errors import (
    InconsistentBundle,
    InvalidArgument,
    InvalidCharFn,
    NonFieldCoefficients,
    NotBuchsbaum,
    NotConnected,
    SposetError,
)
from .facevec import f_h_vectors, ft_vector, h_prime_double
from .homology import Coefficients, _require_ring, reduced_betti
from .poset import SimplicialPoset

CONE = "cone"
MANIFOLD = "manifold"


@dataclass(frozen=True)
class QuotientProblem:
    """One quotient problem; Q is always orientable.

    ``make_problem`` checks the field, the Buchsbaum condition and the
    characteristic function.  ``relative_and_delta``, which ``solve``
    calls, refuses in any problem, also one made by ``dataclasses.replace``:
    an unknown kind, a poset rank other than n, a cone's rank data other
    than (1, 0, ..., 0), and a manifold's that are not n + 1 integers
    with betti_q[0] = 1 and betti_q[n] = 0 or that break exactness.
    """

    kind: str
    poset: SimplicialPoset
    n: int
    coeff: Coefficients
    charfn: CharFunction | None
    betti_q: tuple[int, ...]
    iota: tuple[int, ...]


@dataclass(frozen=True)
class PageTable:
    """Sparse (p, q) -> rank table of one spectral sequence page."""

    cells: dict[tuple[int, int], int]

    def rank(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def diagonal(self, n: int) -> tuple[int, ...]:
        return tuple(self.rank(q, q) for q in range(n + 1))

    def total(self, k: int) -> int:
        return sum(v for (p, q), v in self.cells.items() if p + q == k)

    def to_json(self) -> dict[str, int]:
        return {f"{p},{q}": v for (p, q), v in sorted(self.cells.items())}


@dataclass(frozen=True)
class BigradedTable(PageTable):
    """Dimensions of the bigraded homology pieces and their totals."""

    totals: tuple[int, ...]


@dataclass(frozen=True)
class Tables:
    """Every rank table of one quotient problem, as computed by solve."""

    e1trunc: PageTable
    ea1: PageTable
    ea2: PageTable
    eainf: PageTable
    bigraded: BigradedTable

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


def make_problem(
    kind: str,
    poset: SimplicialPoset,
    n: int,
    coeff: Coefficients,
    charfn: CharFunction | None = None,
    betti_q: tuple[int, ...] | None = None,
    iota: tuple[int, ...] | None = None,
    orientable: bool | None = None,
) -> QuotientProblem:
    """Validate and bundle the data defining one quotient problem.

    Checks run in a fixed order: field coefficients, the Buchsbaum link
    condition against the declared torus rank n (this subsumes purity
    and the dimension requirement and is where non-acyclic-face input
    is refused), a manifold's orientable flag, which must be true, the
    kind, the poset's rank and the rank data with their exactness, by
    :func:`relative_and_delta`, and finally the characteristic function
    if supplied.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidArgument(f"torus rank n = {n!r} is not an integer")
    _require_ring(coeff)
    if not coeff.is_field:
        raise NonFieldCoefficients("quotient rank tables need field coefficients")

    wits = buchsbaum_witnesses(poset, coeff, n=n)
    if wits:
        # one line for any poset: the face count and the first three ids
        faces = sorted({w[0] for w in wits})
        named = ", ".join(faces[:3]) + (", ..." if len(faces) > 3 else "")
        count = f"{len(faces)} face" + ("s" if len(faces) > 1 else "")
        raise NotBuchsbaum(
            f"links of {count} ({named}) are not concentrated in top degree "
            f"for rank {n}",
            witnesses=wits,
        )

    if kind == MANIFOLD:
        if betti_q is None or iota is None or orientable is None:
            raise InconsistentBundle(
                "manifold problems need betti_q, iota and the orientable flag"
            )
        if not orientable:
            raise InconsistentBundle(
                "relative homology is derived by duality; orientable must be true"
            )
    trivial = (1,) + (0,) * n  # a cone's rank data, which it need not give
    betti_q, iota = (trivial if v is None else tuple(v) if isinstance(v, list) else v
                     for v in (betti_q, iota))
    prob = QuotientProblem(kind, poset, n, coeff, charfn, betti_q, iota)
    relative_and_delta(prob)

    if charfn is not None:
        try:
            report = charfn_mod.check(poset, charfn, coeff)
        except SposetError as exc:
            raise InvalidCharFn(str(exc)) from exc
        if not report.passed:
            bad, factors = report.first_failure
            raise InvalidCharFn(
                f"simplex {bad!r} fails over {coeff}: invariant factors {factors}"
            )
    return prob


def relative_and_delta(prob: QuotientProblem):
    """Relative dimensions H_i(Q, bd Q) and connecting ranks delta_i.

    Cone: dim H_i(P, bd P) = b~_(i-1)(S) and delta is injective onto the
    reduced boundary homology.  Manifold: dim H_i(Q, bd Q) = betti_q[n-i]
    by duality and rank delta_i = dim H_i(Q, bd Q) - betti_q[i] + iota[i]
    by exactness.  The one check of the bundle data: raises
    InvalidArgument for an unknown kind, and InconsistentBundle when the
    poset's rank is not the int n, when a cone's betti_q or iota is not
    (1, 0, ..., 0), when a manifold's are not tuples of n + 1 integers,
    when betti_q[0] != 1 or betti_q[n] != 0, when any derived rank
    escapes its exactness bounds, or when delta_i + iota_(i-1) is not
    dim H_(i-1)(bd Q) for some 1 <= i <= n.
    """
    n = prob.n
    if prob.kind not in (CONE, MANIFOLD):
        raise InvalidArgument(f"unknown problem kind {prob.kind!r}")
    if prob.poset.n != n or type(n) is not int:
        raise InconsistentBundle(
            f"poset ambient rank {prob.poset.n} does not match problem rank {n}"
        )
    bt = reduced_betti(prob.poset, prob.coeff).degree
    if prob.kind == CONE:
        trivial = (1,) + (0,) * n
        if prob.betti_q != trivial or prob.iota != trivial:
            raise InconsistentBundle("cone problems fix betti_q = iota = (1,0,...,0)")
        relative = tuple(bt(i - 1) for i in range(n + 1))
    else:
        for label, vec in (("betti_q", prob.betti_q), ("iota", prob.iota)):
            if not isinstance(vec, tuple):
                raise InconsistentBundle(f"{label} {vec!r} is not a tuple of integers")
            for x in vec:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InconsistentBundle(f"{label} entry {x!r} is not an integer")
        if len(prob.betti_q) != n + 1 or len(prob.iota) != n + 1:
            raise InconsistentBundle(f"betti_q and iota must have length {n + 1}")
        if prob.betti_q[0] != 1:
            raise InconsistentBundle("Q is connected, so betti_q[0] must be 1")
        if prob.betti_q[n] != 0:
            raise InconsistentBundle("Q has nonempty boundary, so betti_q[n] must be 0")
        relative = tuple(prob.betti_q[n - i] for i in range(n + 1))

    boundary_unreduced = tuple(bt(p) + (1 if p == 0 else 0) for p in range(n))
    delta = []
    for i in range(n + 1):
        d = relative[i] - prob.betti_q[i] + prob.iota[i]
        if d < 0 or d > relative[i] or d > max(bt(i - 1), 0):
            raise InconsistentBundle(
                f"rank delta_{i} = {d} violates exactness bounds"
            )
        # exactness at H_(i-1)(bd Q): im delta_i = ker iota_(i-1)
        if i and d + prob.iota[i - 1] != boundary_unreduced[i - 1]:
            raise InconsistentBundle(
                f"rank delta_{i} + rank iota_{i - 1} = {d + prob.iota[i - 1]} "
                f"!= {boundary_unreduced[i - 1]} = dim H_{i - 1}(bd Q)"
            )
        delta.append(d)
    for i in range(n + 1):
        bound = boundary_unreduced[i] if i < n else 0
        if prob.iota[i] > min(bound, prob.betti_q[i]):
            raise InconsistentBundle(
                f"iota_{i} = {prob.iota[i]} exceeds min({bound}, {prob.betti_q[i]})"
            )
    if prob.kind == MANIFOLD and prob.iota[0] != 1:
        raise InconsistentBundle("iota_0 must be 1: the boundary is nonempty")
    return relative, tuple(delta)


def e1_diagonal_hprime_form(prob: QuotientProblem) -> tuple[int, ...]:
    """Diagonal of the modified first page via reversed h'-numbers.

    Valid when the poset is a homology manifold orientable over the
    field: h'_(n-q) for q <= n-2, then h'_1 + n, then the top relative
    dimension.  Must agree entrywise with the ea1 diagonal of solve.
    """
    n = prob.n
    hp, _ = h_prime_double(prob.poset, prob.coeff)
    relative, _ = relative_and_delta(prob)
    diag = [hp[n - q] for q in range(n - 1)]
    if n >= 1:
        diag.append(hp[1] + n)
    diag.append(relative[n])
    return tuple(diag)


def solve(prob: QuotientProblem) -> Tables:
    """Every rank table of the quotient, from one pass over its ranks.

    ea1 holds boundary homology tensor exterior forms off the diagonal,
    relative homology stacked in column n, and the closed-form
    diagonal: entry q < n is h_q plus C(n, q) times the alternating
    partial Betti sum, entry n the top relative dimension.  Later pages
    subtract the differential ranks from source and target cells; page
    two applies exactly the column-n differentials of page one (those
    fed by the top relative group).

    The bigraded table holds the relative groups of Q tensor exterior
    forms above the diagonal, the absolute ones below it, and on the
    diagonal the surviving eainf entry plus the relative contribution,
    with the corner (n, n) equal to the top relative dimension.  e1trunc
    is the first page of the truncated sequence: C(p, q) * ft_(n-p-1).
    """
    if not prob.coeff.is_field:
        raise NonFieldCoefficients("quotient rank tables need field coefficients")
    n = prob.n
    relative, delta = relative_and_delta(prob)
    bt = reduced_betti(prob.poset, prob.coeff).degree
    boundary_unreduced = tuple(bt(p) + (1 if p == 0 else 0) for p in range(n))
    _, h, _, _ = f_h_vectors(prob.poset)

    cells: dict[tuple[int, int], int] = {}
    for p in range(n):
        for q in range(p):
            v = boundary_unreduced[p] * comb(n, q)
            if v:
                cells[(p, q)] = v
    for q in range(n):
        v = h[q] + comb(n, q) * sum((-1) ** (p + q) * bt(p) for p in range(q + 1))
        if v:
            cells[(q, q)] = v
    for q in range(-n, n + 1):
        v = sum(
            relative[q1] * comb(n, q + n - q1)
            for q1 in range(max(0, q), n + 1)
            if 0 <= q + n - q1 <= n
        )
        if v:
            cells[(n, q)] = v

    ea2 = dict(cells)
    eainf = dict(cells)
    for q1 in range(1, n + 1):
        if not delta[q1]:
            continue
        page = n - q1 + 1
        for q2 in range(q1):
            rk = delta[q1] * comb(n, q2)  # nonzero: delta[q1] is, and q2 < n
            src = (n, q1 + q2 - n)
            tgt = (q1 - 1, q2)
            for table in (eainf,) if page > 1 else (ea2, eainf):
                table[src] = table.get(src, 0) - rk
                table[tgt] = table.get(tgt, 0) - rk

    for label, table in (("ea2", ea2), ("eainf", eainf)):
        for cell, v in table.items():
            if v < 0:
                raise InconsistentBundle(
                    f"negative rank at {cell} on page {label}"
                )

    big: dict[tuple[int, int], int] = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i > j:
                v = prob.betti_q[i] * comb(n, j)
            elif i < j:
                v = relative[i] * comb(n, j)
            elif i < n:
                v = eainf.get((i, i), 0) + relative[i] * comb(n, i)
            else:
                v = relative[n]
            if v:
                big[(i, j)] = v
    totals = tuple(
        sum(v for (i, j), v in big.items() if i + j == k)
        for k in range(2 * n + 1)
    )

    ft = ft_vector(prob.poset, prob.coeff)
    e1trunc = {}
    for p in range(n):
        for q in range(p + 1):
            v = comb(p, q) * ft[n - p - 1]
            if v:
                e1trunc[(p, q)] = v

    return Tables(
        e1trunc=PageTable(e1trunc),
        ea1=PageTable(cells),
        ea2=PageTable({c: v for c, v in ea2.items() if v}),
        eainf=PageTable({c: v for c, v in eainf.items() if v}),
        bigraded=BigradedTable(big, totals),
    )


def verify(prob: QuotientProblem, tables: Tables) -> VerifyReport:
    """Cross-checks of solved tables against closed forms and dualities.

    euler_conserved: the signed cell sum of the first page equals the
    signed total Betti sum.  pages_match_closed_forms: summing the last
    page along antidiagonals reproduces the bigraded totals.  Cone
    problems compare the last-page diagonal with h'' and assert its
    nonnegativity; manifold problems over an orientable homology
    manifold compare the page-two diagonal with reversed h' and check
    the (i, j) <-> (n-i, n-j) symmetry.  Every report skips
    lambda_independent: ``solve`` never reads the characteristic
    function, so comparing its tables across two of them could not
    fail.  A first page built from the characteristic function would
    make it a real check.
    """
    n = prob.n
    checks: dict[str, bool] = {}
    skipped: dict[str, str] = {}

    big = tables.bigraded
    chi_page = sum(
        (v if (p + q) % 2 == 0 else -v) for (p, q), v in tables.ea1.cells.items()
    )
    chi_x = sum((v if k % 2 == 0 else -v) for k, v in enumerate(big.totals))
    checks["euler_conserved"] = chi_page == chi_x

    checks["pages_match_closed_forms"] = all(
        tables.eainf.total(k) == big.totals[k] for k in range(2 * n + 1)
    )

    if prob.kind == CONE:
        _, hpp = h_prime_double(prob.poset, prob.coeff)
        diag = tables.eainf.diagonal(n)
        checks["diagonal_is_h_double"] = diag == hpp
        checks["h_double_nonneg"] = all(x >= 0 for x in diag)
    else:
        try:
            cls = classify(prob.poset, prob.coeff)
        except NotConnected:
            cls = None
        if cls is not None and cls.homology_manifold and cls.orientable_over_field:
            hp, _ = h_prime_double(prob.poset, prob.coeff)
            checks["diagonal_is_h_prime"] = tables.ea2.diagonal(n) == tuple(
                hp[n - q] for q in range(n + 1)
            ) and tables.ea1.diagonal(n) == e1_diagonal_hprime_form(prob)
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

    top = f_h_vectors(prob.poset)[0][n]
    notes = {"chi_x": chi_x, "top_face_count": top,
             "chi_x_equals_top_face_count": chi_x == top}
    return VerifyReport(checks=checks, skipped=skipped, notes=notes)
