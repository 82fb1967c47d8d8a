"""Seeded fuzzing of the JSON formats.

Every format's documents are mutated one change at a time: a key
deleted, a value replaced by null, a bool, a string, a list, an object
or a huge integer, a list entry duplicated, or two list entries
swapped.  Whatever the mutation, parsing (and, for posets, validation
and homology) must end in a value or in a SposetError, never in
another exception, and a poset that parses kept its name and ids as
the document wrote them.

A second pass mutates the serialized bytes: the text truncated, random
bytes spliced in, the whole wrapped in deep nesting, or a value (string
or number) swapped for a 5,000-digit literal.  ``io.parse`` on those
bytes and ``io.parse_path`` on a file of them must end alike, in a value
or in the same SposetError.
"""
import copy
import json
import random
import re

from sposet import io as io_mod
from sposet.charfn import CharFunction
from sposet.corpus import corpus, corpus_names
from sposet.errors import SchemaViolation, SposetError
from sposet.homology import INTEGERS, RATIONALS, reduced_betti
from sposet.poset import SimplicialPoset, validate_stats
from sposet.spectral import CONE, MANIFOLD, make_problem

from oracles import bundle_doc

CASES = 600
REPLACEMENTS = (None, True, False, "x", ["x"], {"x": 1}, 10**30)


def _seed_documents():
    docs = [io_mod.emit_poset(corpus(name)) for name in corpus_names()]
    docs.append({"format": "scomplex-v1", "name": "circle",
                 "facets": [["a", "b"], ["b", "c"], ["a", "c"]]})
    triangle = corpus("boundary_simplex(2)")
    lam = CharFunction(2, {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)})
    docs.append(io_mod.emit_charfn(lam))
    docs.append(bundle_doc(
        make_problem(CONE, triangle, 2, RATIONALS, charfn=lam)
    ))
    docs.append(bundle_doc(
        make_problem(MANIFOLD, triangle, 2, RATIONALS,
                     betti_q=(1, 0, 0), iota=(1, 0, 0), orientable=True)
    ))
    return docs


def _slots(node):
    # every (container, key) pair in the document tree, root first
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


def _mutate(doc, rng):
    doc = copy.deepcopy(doc)
    container, key = rng.choice(_slots(doc))
    op = rng.randrange(4)
    if op == 0 and isinstance(container, dict):
        del container[key]
    elif op == 1 and isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    elif op == 2 and isinstance(container, list) and len(container) > 1:
        # keeps every type, so the document reaches validation
        other = (key + rng.randrange(1, len(container))) % len(container)
        container[key], container[other] = container[other], container[key]
    else:
        container[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


def test_mutated_documents_end_in_value_or_sposet_error():
    rng = random.Random(20241018)
    docs = _seed_documents()
    outcomes = {"value": 0, "error": 0}
    for case in range(CASES):
        doc = _mutate(docs[case % len(docs)], rng)
        try:
            obj = io_mod.parse(json.dumps(doc))
            if isinstance(obj, SimplicialPoset):
                validate_stats(obj)
                reduced_betti(obj, INTEGERS if case % 2 else RATIONALS)
        except SposetError:
            outcomes["error"] += 1
        except Exception as exc:
            raise AssertionError(f"case {case}: {type(exc).__name__}: {exc}\n{doc}")
        else:
            outcomes["value"] += 1
            if doc.get("format") == "sposet-v1":
                # no silent str(): the name and every id already were names
                assert isinstance(doc.get("name", ""), str), case
                assert all(
                    isinstance(raw["id"], (str, int)) and not isinstance(raw["id"], bool)
                    for raw in doc["elements"]
                ), case
    # the mutations reach both sides of the format boundary
    assert outcomes["value"] > CASES // 10
    assert outcomes["error"] > CASES // 10


TEXT_CASES = 200
# a JSON string or number; a string followed by ":" is a key, not a value
TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"(:?)|-?\d+')


def _mangle(data: bytes, rng, op: int) -> bytes:
    if op == 0:
        return data[:rng.randrange(len(data))]
    if op == 1:
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.randbytes(rng.randint(1, 4)) + data[at:]
    if op == 2:
        depth = rng.choice((3, 200_000))
        return b"[" * depth + data + b"]" * depth
    hit = rng.choice([m for m in TOKEN.finditer(data) if not m.group(1)])
    return data[:hit.start()] + b"9" * 5000 + data[hit.end():]


def _outcome(read):
    try:
        obj = read()
    except SposetError as exc:
        return type(exc), str(exc)
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__}: {str(exc)[:200]}") from exc
    return type(obj), obj if isinstance(obj, SimplicialPoset) else None


def test_mangled_text_ends_in_value_or_sposet_error(tmp_path):
    rng = random.Random(20261019)
    docs = [json.dumps(doc).encode() for doc in _seed_documents()]
    path = tmp_path / "doc.json"
    schema_violations = [0] * 4
    for case in range(TEXT_CASES):
        op = case % 4
        data = _mangle(docs[case % len(docs)], rng, op)
        path.write_bytes(data)
        outcome = _outcome(lambda: io_mod.parse(data))
        assert _outcome(lambda: io_mod.parse_path(path)) == outcome, (case, data[:200])
        schema_violations[op] += outcome[0] is SchemaViolation
    # every kind of mangling reaches the decode step's refusal
    assert all(schema_violations), schema_violations
