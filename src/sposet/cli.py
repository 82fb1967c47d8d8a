"""Command line interface: every computation as a subcommand.

Each command builds one report dict.  ``--json`` prints it canonically
(sorted keys, fixed separators), so identical invocations are
byte-identical; without it the same entries print as ``key: value``
lines.  The exit status comes from the report, not from the output
form.  Every input document is read through ``_load``, which refuses
one of the wrong kind; a directory given as a path is a usage error.
A ``SposetError`` raised anywhere beneath the ``cli`` group prints as
one ``Error: <Class>: <message>`` line and exits 1.
"""
from __future__ import annotations

import json
import sys

import click
from click.core import ParameterSource

from . import io as io_mod
from . import spectral
from .charfn import CharFunction, random_q_charfn
from .charfn import check as charfn_check
from .classify import classify as classify_op
from .corpus import corpus, corpus_names
from .errors import SchemaViolation, SposetError
from .facevec import face_vector_report, identity_report
from .homology import parse_coefficients, reduced_betti
from .poset import SimplicialPoset, validate_stats


def _echo_json(payload) -> None:
    click.echo(io_mod.dumps_canonical(payload))


def _emit(title: str, report: dict, as_json: bool, failed: bool = False) -> None:
    """Print a command's one report, as canonical JSON or as text.

    The text is ``title``, then a ``key: value`` line per entry, with a
    nested dict's entries one level deeper.  A report that records a
    failure exits 1 in either form.
    """
    if as_json:
        _echo_json(report)
    else:
        click.echo(title)
        _print_entries(report, "  ")
    if failed:
        sys.exit(1)


def _print_entries(entries: dict, indent: str) -> None:
    for key, value in entries.items():
        if isinstance(value, dict):
            click.echo(f"{indent}{key}:")
            _print_entries(value, indent + "  ")
        else:
            click.echo(f"{indent}{key}: {value if isinstance(value, str) else json.dumps(value)}")


def _over(S: SimplicialPoset, ring, result) -> dict:
    # a result's fields over one ring, led by the poset's name and the ring's label
    fields = {key: value for key, value in vars(result).items() if key != "coeff"}
    return {"name": S.name, "coeff": ring.label, **fields}


def _load(path, expected_type: type, what: str):
    """Parse the document at ``path``; refuse it unless it is an
    ``expected_type`` and, for a problem bundle, of kind ``what``."""
    obj = io_mod.parse_path(path)
    if not isinstance(obj, expected_type) or (
        isinstance(obj, spectral.QuotientProblem) and obj.kind != what
    ):
        raise SchemaViolation(f"{path} does not hold a {what} document")
    return obj


def _poset(corpus_name, path) -> SimplicialPoset:
    if (corpus_name is None) == (path is None):
        raise click.UsageError("give exactly one of --corpus NAME or a file path")
    return corpus(corpus_name) if path is None else _load(path, SimplicialPoset, "poset")


_FILE = click.Path(exists=True, dir_okay=False)


def _poset_args(fn):
    fn = click.argument("path", required=False, type=_FILE)(fn)
    fn = click.option("--corpus", "corpus_name", help="built-in corpus entry")(fn)
    return fn


_FIELD = click.option(
    "--field", default="q", show_default=True, help="q or fp:<p>"
)
_JSON = click.option("--json", "as_json", is_flag=True, help="canonical JSON output")


class _Cli(click.Group):
    # the one error boundary: covers every subgroup, command and parameter callback
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SposetError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Cli)
@click.version_option(package_name="sposet")
def cli():
    """Exact invariants of simplicial posets and torus quotient ranks."""


@cli.command()
@_poset_args
@_JSON
def stats(corpus_name, path, as_json):
    """Dimension, purity, connectivity and the f-vector."""
    S = _poset(corpus_name, path)
    _emit("poset statistics", {"name": S.name, **vars(validate_stats(S))}, as_json)


@cli.command()
@_poset_args
@click.option(
    "--coeff", default="q", show_default=True, help="z, q or fp:<p>"
)
@_JSON
def homology(corpus_name, path, coeff, as_json):
    """Reduced Betti numbers, with torsion over the integers."""
    S = _poset(corpus_name, path)
    ring = parse_coefficients(coeff)
    _emit("reduced Betti numbers", _over(S, ring, reduced_betti(S, ring)), as_json)


@cli.command()
@_poset_args
@_FIELD
@_JSON
def fvec(corpus_name, path, field, as_json):
    """f, h, ft, h' and h'' vectors over a field."""
    S = _poset(corpus_name, path)
    ring = parse_coefficients(field)
    _emit("face vectors", _over(S, ring, face_vector_report(S, ring)), as_json)


@cli.command(name="classify")
@_poset_args
@click.option("--field", default="q", show_default=True, help="z, q or fp:<p>")
@_JSON
def classify_cmd(corpus_name, path, field, as_json):
    """Buchsbaum / Cohen-Macaulay / homology-manifold verdicts."""
    S = _poset(corpus_name, path)
    ring = parse_coefficients(field)
    _emit("classification", _over(S, ring, classify_op(S, ring)), as_json)


@cli.command()
@_poset_args
@_FIELD
@_JSON
def identities(corpus_name, path, field, as_json):
    """Run the face-vector identity suite over a field."""
    S = _poset(corpus_name, path)
    ring = parse_coefficients(field)
    rep = identity_report(S, ring)
    report = {"name": S.name, "coeff": ring.label,
              "checks": rep.checks, "skipped": rep.skipped}
    _emit("face-vector identities", report, as_json, failed=not rep.all_passed)


@cli.group()
def charfn():
    """Characteristic function utilities."""


@charfn.command(name="check")
@click.argument("charfn_path", type=_FILE)
@_poset_args
@click.option("--coeff", default="z", show_default=True, help="z, q or fp:<p>")
@_JSON
def charfn_check_cmd(charfn_path, corpus_name, path, coeff, as_json):
    """Check an assignment against every simplex of a poset."""
    S = _poset(corpus_name, path)
    lam = _load(charfn_path, CharFunction, "charfn")
    ring = parse_coefficients(coeff)
    rep = charfn_check(S, lam, ring)
    bad = rep.first_failure
    report = {
        "coeff": ring.label,
        "passed": rep.passed,
        "verdicts": dict(rep.verdicts),
        "first_failure": None if bad is None
        else {"simplex": bad[0], "invariant_factors": bad[1]},
    }
    _emit("characteristic function check", report, as_json, failed=not rep.passed)


@charfn.command(name="random")
@_poset_args
@click.option("--n", "rank", type=int, required=True, help="torus rank")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bound", type=int, default=5, show_default=True)
def charfn_random_cmd(corpus_name, path, rank, seed, bound):
    """Sample a rational characteristic function (emits charfn-v1)."""
    S = _poset(corpus_name, path)
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
    _emit("quotient report", report, as_json, failed=not all(checks.values()))


@cli.group()
def quotient():
    """Rank tables of quotient constructions."""


def _problem_from_cli(kind, corpus_name, path, rank, field, charfn_path,
                      betti_q, iota, orientable):
    if path is not None and corpus_name is None and rank is None:
        # a bundle holds the whole problem, so any other option would be lost
        ctx = click.get_current_context()
        given = ["/".join(p.opts + p.secondary_opts) for p in ctx.command.params
                 if p.name not in ("path", "as_json")
                 and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
        if given:
            raise click.UsageError(
                f"a bundle file holds its own field and data; drop {', '.join(given)}"
            )
        return _load(path, spectral.QuotientProblem, kind)
    S = _poset(corpus_name, path)
    if rank is None:
        raise click.UsageError("--n is required unless a bundle file is given")
    lam = _load(charfn_path, CharFunction, "charfn") if charfn_path else None
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
    fn = click.option("--charfn", "charfn_path", type=_FILE)(fn)
    fn = _JSON(fn)
    return fn


@quotient.command(name="cone")
@_quotient_options
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
