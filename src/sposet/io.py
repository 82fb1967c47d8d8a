"""JSON input and output formats.

Format tags: "sposet-v1" (explicit face lattice), "scomplex-v1"
(facet shorthand for genuine complexes), "charfn-v1" (vertex vector
assignment), "cone-v1" and "manifold-v1" (quotient problem bundles,
read but not written).  Emission is canonical: sorted keys, fixed
separators, elements in (rank, id) order, so identical inputs
serialize byte-identically.
"""
from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

from . import spectral
from .charfn import CharFunction
from .errors import InvalidArgument, SchemaViolation, SposetError, UnknownFormat, shown
from .homology import parse_coefficients
from .poset import (
    SimplexElem,
    SimplicialPoset,
    from_face_lattice,
    from_facets,
    is_int,
    is_name,
)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _need(doc: dict, key: str, kind=None):
    if key not in doc:
        raise SchemaViolation(f"missing key {key!r} in {doc.get('format', '?')}")
    value = doc[key]
    # JSON true/false decode to bool, which Python counts as an int
    if kind is not None and not (is_int(value) if kind is int else isinstance(value, kind)):
        raise SchemaViolation(
            f"key {key!r}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _ints(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(is_int, value)):
        raise SchemaViolation(f"{where}: expected a list of integers")
    return tuple(value)


def _name(value, where: str) -> str:
    if not is_name(value):
        raise SchemaViolation(f"{where}: expected a str or int name")
    return str(value)


def _names(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise SchemaViolation(f"{where}: expected a list of str or int names")
    return tuple(_name(x, where) for x in value)


def _checked_once(build, lists, locate):
    # the library checks each name and integer of the lists once; only its
    # refusal reads the document again, for locate to raise at the first
    # malformed list, which the document reports ahead of any other fault
    try:
        if not all(map(isinstance, lists, repeat(list))):
            raise SchemaViolation("expected a list in every entry")
        return build()
    except SposetError:
        locate()
        raise


def _parse_poset(doc: dict) -> SimplicialPoset:
    fmt = doc.get("format")
    name = _need(doc, "name", str) if "name" in doc else ""
    if fmt == "scomplex-v1":
        facets = _need(doc, "facets", list)
        return _checked_once(
            lambda: from_facets(facets, name=name), facets,
            lambda: [_names(f, f"facets[{idx}]") for idx, f in enumerate(facets)])
    elements = _need(doc, "elements", list)
    elems = []
    for idx, raw in enumerate(elements):
        if not isinstance(raw, dict):
            raise SchemaViolation(f"elements[{idx}] is not an object")
        elems.append(
            SimplexElem(
                _name(_need(raw, "id"), f"elements[{idx}].id"),
                _names(_need(raw, "vertices"), f"elements[{idx}].vertices"),
                _names(_need(raw, "facets"), f"elements[{idx}].facets"),
            )
        )
    n = None if doc.get("n") is None else _need(doc, "n", int)
    return from_face_lattice(elems, n=n, name=name)


def _parse_charfn(doc: dict) -> CharFunction:
    n = _need(doc, "n", int)
    assignment = _need(doc, "assignment", dict)
    return _checked_once(
        lambda: CharFunction(n, assignment), assignment.values(),
        lambda: [_ints(v, f"assignment[{k!r}]") for k, v in assignment.items()])


def _parse_problem(doc: dict) -> spectral.QuotientProblem:
    kind = spectral.CONE if doc["format"] == "cone-v1" else spectral.MANIFOLD
    poset_doc = _need(doc, "poset", dict)
    poset = _parse_poset(poset_doc)
    n = _need(doc, "n", int)
    coeff = parse_coefficients(_need(doc, "field", str))
    lam = None
    if doc.get("charfn") is not None:
        lam = _parse_charfn(_need(doc, "charfn", dict))
    kwargs = {}
    if kind == spectral.MANIFOLD:
        kwargs["betti_q"] = _ints(_need(doc, "bettiQ"), "bettiQ")
        kwargs["iota"] = _ints(_need(doc, "iota"), "iota")
        kwargs["orientable"] = _need(doc, "orientable", bool)
    return spectral.make_problem(kind, poset, n, coeff, charfn=lam, **kwargs)


_PARSERS = {
    "sposet-v1": _parse_poset,
    "scomplex-v1": _parse_poset,
    "charfn-v1": _parse_charfn,
    "cone-v1": _parse_problem,
    "manifold-v1": _parse_problem,
}


def _object(pairs: list) -> dict:
    # one JSON object, whose keys must differ: json itself keeps the last value
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaViolation(f"key {shown(key)} repeated in one object")
            seen.add(key)
    return doc


def _decode(source: str | bytes):
    # bytes must be UTF-8; each way json can fail becomes a SchemaViolation
    try:
        return json.loads(source.decode() if isinstance(source, bytes) else source,
                          object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
    except ValueError:
        reason = "an integer literal with more digits than Python reads"
    except RecursionError:
        reason = "arrays or objects nested too deeply"
    raise SchemaViolation(f"not valid JSON: {reason}")


def parse(source):
    """Decode a JSON document (text, UTF-8 bytes or dict) into a validated object."""
    doc = _decode(source) if isinstance(source, (str, bytes)) else source
    if not isinstance(doc, dict):
        raise SchemaViolation("top level must be a JSON object")
    fmt = doc.get("format")
    parser = _PARSERS.get(fmt) if isinstance(fmt, str) else None
    if parser is None:
        raise UnknownFormat(f"unknown format tag {shown(fmt)}")
    return parser(doc)


def parse_path(path) -> object:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidArgument(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse(data)


def emit_poset(S: SimplicialPoset) -> dict:
    doc = {
        "format": "sposet-v1",
        "name": S.name,
        "elements": [
            {
                "id": e.id,
                "vertices": list(e.vertices),
                "facets": list(e.facets),
            }
            for e in S.elements()
        ],
    }
    if S.n != S.dim + 1:
        doc["n"] = S.n
    return doc


def emit_charfn(lam: CharFunction) -> dict:
    return {
        "format": "charfn-v1",
        "n": lam.n,
        "assignment": {k: list(v) for k, v in sorted(lam.assignment.items())},
    }
