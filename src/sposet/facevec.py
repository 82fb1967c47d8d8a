"""Face numbers: one record per (poset, field) of f, h, link-based ft
and the corrected h'/h'' vectors, and the identity suite connecting them.

Everything is exact integer arithmetic: h and both link identities are
closed binomial sums, evaluated one coefficient at a time.  The reduced
Euler characteristic is taken as chi - 1, the alternating sum of
reduced Betti numbers, which is what the top h-number identity forces.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .classify import _require_pure, buchsbaum_witnesses, classify
from .errors import NonFieldCoefficients, NotConnected
from .homology import Coefficients, _link_table, _require_ring, reduced_betti
from .poset import SimplicialPoset, validate_stats


@dataclass(frozen=True)
class FaceVectorReport:
    n: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    ft: tuple[int, ...]
    hprime: tuple[int, ...]
    hdoubleprime: tuple[int, ...]
    chi: int
    chitilde: int
    coeff: Coefficients


@dataclass(frozen=True)
class IdentityReport:
    checks: dict[str, bool]
    skipped: dict[str, str]
    report: FaceVectorReport

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def face_vector_report(S: SimplicialPoset, coeff: Coefficients) -> FaceVectorReport:
    """Every face number of a pure poset over a field, computed once per
    (poset, ring) and kept on the poset.

    f counts the faces by rank, the empty face first.  h_j = sum_(i<=j)
    (-1)^(j-i) C(n-i, j-i) f_(i-1), the coefficients of sum_i f_(i-1)
    t^i (1-t)^(n-i); chi is the alternating face-count sum and chitilde =
    chi - 1.  ft_i adds dim H~_(n-1-|I|) of the link over all
    i-dimensional faces, summed in one pass over the link table, whose
    rows end in that degree; for a homology manifold it reproduces the
    f-vector.  h'_i adds C(n,i) times an alternating partial sum of
    reduced Betti numbers to h_i; h''_i subtracts C(n,i) b~_(i-1) again
    except at the top, where h''_n = h'_n.
    """
    _require_pure(S)
    _require_ring(coeff)
    if not coeff.is_field:
        raise NonFieldCoefficients("ft numbers need field coefficients")
    rep = S._cache.get(("faces", coeff))
    if rep is None:
        n, f = S.n, validate_stats(S).f
        h = tuple(
            sum((-1) ** (j - i) * comb(n - i, j - i) * f[i] for i in range(j + 1))
            for j in range(n + 1)
        )
        chi = sum(f[i + 1] if i % 2 == 0 else -f[i + 1] for i in range(n))
        ft = [0] * n
        for _, rank, reduced, _ in _link_table(S, coeff):
            ft[rank - 1] += reduced[-1]
        bt = reduced_betti(S, coeff).degree
        hp = tuple(
            h[i] + comb(n, i) * sum((-1) ** (i - j - 1) * bt(j - 1) for j in range(1, i))
            for i in range(n + 1)
        )
        hpp = tuple(hp[i] - comb(n, i) * bt(i - 1) for i in range(n)) + hp[n:]
        rep = S._cache["faces", coeff] = FaceVectorReport(
            n=n, f=f, h=h, ft=tuple(ft), hprime=hp, hdoubleprime=hpp,
            chi=chi, chitilde=chi - 1, coeff=coeff,
        )
    return rep


def identity_report(S: SimplicialPoset, coeff: Coefficients) -> IdentityReport:
    """Exact verdicts for the identities tying f, h, ft and h'' together.

    Unconditional checks: the top h-number as the reduced Euler
    characteristic, and the top h'-number as the top Betti number.  The
    face polynomial against link homology, the h-from-ft expansion and
    nonnegativity of h'' run only on Buchsbaum posets: ft counts top link
    homology alone, so the first two need links concentrated in top
    degree.  Dehn-Sommerville symmetry runs only on homology manifolds
    (its h'' half additionally needs top homology of rank one, i.e.
    orientability over the field); anything gated off is reported as
    skipped.
    """
    rep = face_vector_report(S, coeff)
    n, f, h, ft = rep.n, rep.f, rep.h, rep.ft
    chi, hp, hpp = rep.chi, rep.hprime, rep.hdoubleprime
    bt = reduced_betti(S, coeff)
    checks: dict[str, bool] = {}
    skipped: dict[str, str] = {}

    checks["h_top_is_euler"] = h[n] == (-1) ** (n - 1) * rep.chitilde
    checks["h_prime_top_is_betti"] = hp[n] == bt.degree(n - 1)

    try:
        cls = classify(S, coeff)
    except NotConnected:
        cls = None
    hm = cls is not None and cls.homology_manifold
    if hm:
        checks["dehn_sommerville_h"] = all(
            h[i] == h[n - i] + (-1) ** i * comb(n, i) * (1 - (-1) ** n - chi)
            for i in range(n + 1)
        )
        if cls.orientable_over_field:
            checks["dehn_sommerville_h_double"] = all(
                hpp[i] == hpp[n - i] for i in range(n + 1)
            )
        else:
            skipped["dehn_sommerville_h_double"] = (
                "needs top homology of rank 1 over this field"
            )
    else:
        reason = "not a homology manifold over this field"
        skipped["dehn_sommerville_h"] = reason
        skipped["dehn_sommerville_h_double"] = reason

    buchsbaum = cls.buchsbaum if cls is not None else not buchsbaum_witnesses(S, coeff)
    if buchsbaum:
        # face polynomial: f_S(t) = (1 - chi) + (-1)^n sum_k ft_k (-t-1)^(k+1)
        checks["f_from_link_homology"] = all(
            f[i]
            == (1 - chi) * (i == 0)
            + (-1) ** n * sum((-1) ** (k + 1) * comb(k + 1, i) * ft[k] for k in range(n))
            for i in range(n + 1)
        )
        # h-polynomial: sum h_i t^i = (1-t)^n (1-chi) + sum_k ft_k (t-1)^(n-k-1)
        checks["h_from_link_f"] = all(
            h[i]
            == (1 - chi) * (-1) ** i * comb(n, i)
            + sum(
                (-1) ** (n - k - i - 1) * comb(n - k - 1, i) * ft[k]
                for k in range(n)
            )
            for i in range(n + 1)
        )
        checks["h_double_nonneg"] = all(x >= 0 for x in hpp)
    else:
        for key in ("f_from_link_homology", "h_from_link_f", "h_double_nonneg"):
            skipped[key] = "not Buchsbaum over this field"

    return IdentityReport(checks=checks, skipped=skipped, report=rep)
