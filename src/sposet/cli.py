"""Command line interface: every computation as a subcommand.

Human output is plain deterministic text; ``--json`` switches to
canonical machine-readable reports (sorted keys, fixed separators), so
identical invocations are byte-identical.
"""
from __future__ import annotations

import functools
import sys

import click

from . import io as io_mod
from . import spectral
from .charfn import random_q_charfn
from .charfn import check as charfn_check
from .classify import classify as classify_op
from .corpus import corpus, corpus_names
from .errors import SchemaViolation, SposetError
from .facevec import face_vector_report, identity_report
from .homology import parse_coefficients, reduced_betti
from .poset import validate_stats


def _friendly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SposetError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}")

    return wrapper


def _echo_json(payload) -> None:
    click.echo(io_mod.dumps_canonical(payload))


def _load_poset(corpus_name, path):
    if (corpus_name is None) == (path is None):
        raise click.UsageError("give exactly one of --corpus NAME or a file path")
    if corpus_name is not None:
        return corpus(corpus_name)
    obj = io_mod.parse_path(path)
    if not hasattr(obj, "elements"):
        raise SchemaViolation(f"{path} does not hold a poset document")
    return obj


def _poset_args(fn):
    fn = click.argument("path", required=False, type=click.Path(exists=True))(fn)
    fn = click.option("--corpus", "corpus_name", help="built-in corpus entry")(fn)
    return fn


_FIELD = click.option(
    "--field", default="q", show_default=True, help="q or fp:<p>"
)
_JSON = click.option("--json", "as_json", is_flag=True, help="canonical JSON output")


@click.group()
@click.version_option(package_name="sposet")
def cli():
    """Exact invariants of simplicial posets and torus quotient ranks."""


@cli.command()
@_poset_args
@_JSON
@_friendly
def stats(corpus_name, path, as_json):
    """Dimension, purity, connectivity and the f-vector."""
    S = _load_poset(corpus_name, path)
    st = validate_stats(S)
    if as_json:
        _echo_json(
            {
                "name": S.name,
                "dim": st.dim,
                "pure": st.pure,
                "connected": st.connected,
                "f": list(st.f),
            }
        )
        return
    click.echo(f"name:      {S.name or '(unnamed)'}")
    click.echo(f"dim:       {st.dim}")
    click.echo(f"pure:      {'yes' if st.pure else 'no'}")
    click.echo(f"connected: {'yes' if st.connected else 'no'}")
    click.echo(f"f:         {list(st.f)}")


@cli.command()
@_poset_args
@click.option(
    "--coeff", default="q", show_default=True, help="z, q or fp:<p>"
)
@_JSON
@_friendly
def homology(corpus_name, path, coeff, as_json):
    """Reduced Betti numbers, with torsion over the integers."""
    S = _load_poset(corpus_name, path)
    ring = parse_coefficients(coeff)
    bv = reduced_betti(S, ring)
    if as_json:
        _echo_json(
            {
                "name": S.name,
                "coeff": ring.label,
                "reduced": list(bv.reduced),
                "torsion": [list(t) for t in bv.torsion],
            }
        )
        return
    click.echo(f"reduced Betti numbers of {S.name or '(unnamed)'} over {ring}:")
    for deg in bv.degrees():
        tor = bv.torsion_in(deg)
        extra = "" if not tor else "  torsion " + " + ".join(f"Z/{d}" for d in tor)
        click.echo(f"  degree {deg:>2}: {bv.degree(deg)}{extra}")


@cli.command()
@_poset_args
@_FIELD
@_JSON
@_friendly
def fvec(corpus_name, path, field, as_json):
    """f, h, ft, h' and h'' vectors over a field."""
    S = _load_poset(corpus_name, path)
    ring = parse_coefficients(field)
    rep = face_vector_report(S, ring)
    if as_json:
        _echo_json(
            {
                "name": S.name,
                "coeff": ring.label,
                "n": rep.n,
                "f": list(rep.f),
                "h": list(rep.h),
                "ft": list(rep.ft),
                "hprime": list(rep.hprime),
                "hdoubleprime": list(rep.hdoubleprime),
                "chi": rep.chi,
                "chitilde": rep.chitilde,
            }
        )
        return
    click.echo(f"face vectors of {S.name or '(unnamed)'} over {ring} (n={rep.n}):")
    for label, vec in (
        ("f", rep.f), ("h", rep.h), ("ft", rep.ft),
        ("h'", rep.hprime), ("h''", rep.hdoubleprime),
    ):
        click.echo(f"  {label:<4} {list(vec)}")
    click.echo(f"  chi  {rep.chi}   chitilde {rep.chitilde}")


@cli.command(name="classify")
@_poset_args
@_FIELD
@_JSON
@_friendly
def classify_cmd(corpus_name, path, field, as_json):
    """Buchsbaum / Cohen-Macaulay / homology-manifold verdicts."""
    S = _load_poset(corpus_name, path)
    ring = parse_coefficients(field)
    cls = classify_op(S, ring)
    if as_json:
        _echo_json(
            {
                "name": S.name,
                "coeff": ring.label,
                "buchsbaum": cls.buchsbaum,
                "cohen_macaulay": cls.cohen_macaulay,
                "homology_manifold": cls.homology_manifold,
                "orientable_over_field": cls.orientable_over_field,
                "witnesses": [list(w) for w in cls.witnesses],
            }
        )
        return
    yn = lambda b: "yes" if b else "no"
    click.echo(f"classification of {S.name or '(unnamed)'} over {ring}:")
    click.echo(f"  buchsbaum:          {yn(cls.buchsbaum)}")
    click.echo(f"  cohen-macaulay:     {yn(cls.cohen_macaulay)}")
    click.echo(f"  homology manifold:  {yn(cls.homology_manifold)}")
    click.echo(f"  orientable (field): {yn(cls.orientable_over_field)}")
    for eid, deg, val in cls.witnesses:
        where = eid if eid is not None else "(the poset itself)"
        click.echo(f"  witness: {where} degree {deg} has rank {val}")


@cli.command()
@_poset_args
@_FIELD
@_JSON
@_friendly
def identities(corpus_name, path, field, as_json):
    """Run the face-vector identity suite over a field."""
    S = _load_poset(corpus_name, path)
    ring = parse_coefficients(field)
    rep = identity_report(S, ring)
    if as_json:
        _echo_json(
            {
                "name": S.name,
                "coeff": ring.label,
                "checks": rep.checks,
                "skipped": rep.skipped,
            }
        )
        return
    click.echo(f"identity suite for {S.name or '(unnamed)'} over {ring}:")
    for name, ok in sorted(rep.checks.items()):
        click.echo(f"  {name:<28} {'pass' if ok else 'FAIL'}")
    for name, reason in sorted(rep.skipped.items()):
        click.echo(f"  {name:<28} skipped ({reason})")
    if not rep.all_passed:
        raise click.ClickException("identity suite failed")


@cli.group()
def charfn():
    """Characteristic function utilities."""


@charfn.command(name="check")
@click.argument("charfn_path", type=click.Path(exists=True))
@_poset_args
@click.option("--coeff", default="z", show_default=True, help="z, q or fp:<p>")
@_JSON
@_friendly
def charfn_check_cmd(charfn_path, corpus_name, path, coeff, as_json):
    """Check an assignment against every simplex of a poset."""
    S = _load_poset(corpus_name, path)
    lam = io_mod.parse_path(charfn_path)
    ring = parse_coefficients(coeff)
    rep = charfn_check(S, lam, ring)
    if as_json:
        _echo_json(
            {
                "coeff": ring.label,
                "passed": rep.passed,
                "verdicts": {eid: ok for eid, ok in rep.verdicts},
                "first_failure": None
                if rep.first_failure is None
                else {
                    "simplex": rep.first_failure[0],
                    "invariant_factors": list(rep.first_failure[1]),
                },
            }
        )
    else:
        click.echo(f"check over {ring}: {'PASS' if rep.passed else 'FAIL'}")
        if rep.first_failure is not None:
            eid, factors = rep.first_failure
            click.echo(f"  first failure: {eid} invariant factors {list(factors)}")
    if not rep.passed:
        sys.exit(1)


@charfn.command(name="random")
@_poset_args
@click.option("--n", "rank", type=int, required=True, help="torus rank")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bound", type=int, default=5, show_default=True)
@_friendly
def charfn_random_cmd(corpus_name, path, rank, seed, bound):
    """Sample a rational characteristic function (emits charfn-v1)."""
    S = _load_poset(corpus_name, path)
    lam = random_q_charfn(S, rank, seed=seed, bound=bound)
    _echo_json(io_mod.emit_charfn(lam))


def _emit_report(prob, as_json: bool) -> None:
    tables = spectral.solve(prob)
    ver = spectral.verify(prob, tables)
    idrep = identity_report(prob.poset, prob.coeff)
    checks = {**ver.checks, **{f"identity_{k}": v for k, v in idrep.checks.items()}}
    skipped = {**ver.skipped, **{f"identity_{k}": v for k, v in idrep.skipped.items()}}
    report = {
        "format": "report-v1",
        "inputs": {
            "kind": prob.kind,
            "poset": prob.poset.name,
            "n": prob.n,
            "field": prob.coeff.label,
            "bettiQ": list(prob.betti_q),
            "iota": list(prob.iota),
            "orientable": True,
            "charfn": None
            if prob.charfn is None
            else io_mod.emit_charfn(prob.charfn),
        },
        "tables": tables.to_json(),
        "checks": checks,
        "skipped": skipped,
        "notes": ver.notes,
    }
    _echo_json(report) if as_json else _print_report(report)


def _print_report(report: dict) -> None:
    n = report["inputs"]["n"]
    click.echo(
        f"{report['inputs']['kind']} problem over "
        f"{report['inputs']['poset'] or '(unnamed)'}, n={n}, "
        f"field {report['inputs']['field']}"
    )
    for label in ("e1trunc", "ea1", "ea2", "eainf"):
        cells = report["tables"][label]
        click.echo(f"  page {label}:")
        for key in sorted(cells):
            p, q = key.split(",")
            click.echo(f"    ({p:>2},{q:>3}) = {cells[key]}")
    click.echo("  bigraded:")
    for key in sorted(report["tables"]["bigraded"]):
        i, j = key.split(",")
        click.echo(f"    H[{i},{j}] = {report['tables']['bigraded'][key]}")
    click.echo(f"  totals: {report['tables']['totals']}")
    for name, ok in sorted(report["checks"].items()):
        click.echo(f"  check {name:<26} {'pass' if ok else 'FAIL'}")
    for name, reason in sorted(report["skipped"].items()):
        click.echo(f"  check {name:<26} skipped ({reason})")
    notes = report["notes"]
    click.echo(
        f"  note: chi(X) = {notes['chi_x']}, top face count = "
        f"{notes['top_face_count']}"
        + (" (equal)" if notes["chi_x_equals_top_face_count"] else "")
    )


@cli.group()
def quotient():
    """Rank tables of quotient constructions."""


def _problem_from_cli(kind, corpus_name, path, rank, field, charfn_path,
                      betti_q, iota, orientable):
    if path is not None and corpus_name is None and rank is None:
        prob = io_mod.parse_path(path)
        if not isinstance(prob, spectral.QuotientProblem):
            raise SchemaViolation(f"{path} does not hold a problem bundle")
        if prob.kind != kind:
            raise SchemaViolation(
                f"{path} holds a {prob.kind} bundle, expected {kind}"
            )
        return prob
    S = _load_poset(corpus_name, path if corpus_name is None else None)
    if rank is None:
        raise click.UsageError("--n is required unless a bundle file is given")
    lam = io_mod.parse_path(charfn_path) if charfn_path else None
    if kind == spectral.MANIFOLD and (betti_q is None or iota is None):
        raise click.UsageError(
            "manifold problems need --betti-q and --iota (or a bundle file)"
        )
    return spectral.make_problem(
        kind, S, rank, parse_coefficients(field), charfn=lam,
        betti_q=betti_q, iota=iota, orientable=orientable,
    )


def _int_list(ctx, param, value):
    if value is None:
        return None
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not a comma separated list of integers"
        ) from None


def _quotient_options(fn):
    fn = _poset_args(fn)
    fn = click.option("--n", "rank", type=int, help="torus rank")(fn)
    fn = _FIELD(fn)
    fn = click.option("--charfn", "charfn_path", type=click.Path(exists=True))(fn)
    fn = _JSON(fn)
    return fn


@quotient.command(name="cone")
@_quotient_options
@_friendly
def quotient_cone(corpus_name, path, rank, field, charfn_path, as_json):
    """Cone over a Buchsbaum poset (accepts a cone-v1 bundle file)."""
    prob = _problem_from_cli(
        spectral.CONE, corpus_name, path, rank, field, charfn_path, None, None, None
    )
    _emit_report(prob, as_json)


@quotient.command(name="manifold")
@_quotient_options
@click.option("--betti-q", callback=_int_list, help="comma separated dims of H_*(Q)")
@click.option(
    "--iota", callback=_int_list, help="comma separated ranks of H_*(bd Q) -> H_*(Q)"
)
@click.option("--orientable/--no-orientable", default=True, show_default=True)
@_friendly
def quotient_manifold(corpus_name, path, rank, field, charfn_path, as_json,
                      betti_q, iota, orientable):
    """Manifold with corners (accepts a manifold-v1 bundle file)."""
    prob = _problem_from_cli(
        spectral.MANIFOLD, corpus_name, path, rank, field, charfn_path,
        betti_q, iota, orientable,
    )
    _emit_report(prob, as_json)


@cli.group(name="corpus")
def corpus_group():
    """Built-in example posets."""


@corpus_group.command(name="list")
def corpus_list():
    """Names of all corpus entries."""
    for name in corpus_names():
        click.echo(name)


@corpus_group.command(name="emit")
@click.argument("name")
@_friendly
def corpus_emit(name):
    """Serialize a corpus entry as sposet-v1 JSON."""
    _echo_json(io_mod.emit_poset(corpus(name)))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except SystemExit as exc:
        return exc.code or 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
