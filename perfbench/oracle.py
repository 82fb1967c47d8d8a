"""Known answers for every request, derived without the code under test.

Betti numbers come from each rung's topological type, face counts from
subset enumeration of the document's facets, h'' from the benchmark's
own binomial transform of those counts, and λ validity from exact integer
elimination (rank over Q) or gcds of maximal minors (over Z).
"""
from __future__ import annotations

import json
from itertools import combinations
from math import comb, gcd

from gen import all_faces, canonical, face_counts, rational_rank

# reduced Betti numbers in degrees -1 .. n-1
_FIELD_BETTI = {
    "torus": (0, 0, 2, 1),
    "S2": (0, 0, 0, 1),
    "S5": (0, 0, 0, 0, 0, 0, 1),
    "RP2": (0, 0, 0, 0),
}


def betti(kind: str, coeff: str) -> tuple[tuple[int, ...], list]:
    """Reduced Betti numbers and torsion (as ``homology --json`` lists it)."""
    reduced = _FIELD_BETTI[kind]
    if kind == "RP2" and coeff == "fp:2":
        reduced = (0, 0, 1, 1)
    if coeff != "z":
        return reduced, []
    torsion = [[] for _ in reduced]
    if kind == "RP2":
        torsion[2] = [2]  # H_1(RP^2; Z) = Z/2
    return reduced, torsion


def h_double_prime(f: tuple[int, ...], reduced: tuple[int, ...]) -> tuple[int, ...]:
    """h'' from the f-vector (f_-1 first) and reduced Betti numbers."""
    n = len(f) - 1
    bt = lambda k: reduced[k + 1]  # noqa: E731
    h = [
        sum((-1) ** (i - j) * comb(n - j, i - j) * f[j] for j in range(i + 1))
        for i in range(n + 1)
    ]
    hp = [
        h[i] + comb(n, i) * sum((-1) ** (i - j - 1) * bt(j - 1) for j in range(1, i))
        for i in range(n + 1)
    ]
    return tuple(hp[i] - comb(n, i) * bt(i - 1) for i in range(n)) + (hp[n],)


def _det(m: list[list[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    m = [row[:] for row in m]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def integral_valid(rows) -> bool:
    """The rows span a direct summand of Z^n: maximal minors have gcd 1."""
    k, n = len(rows), len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, _det([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return True
    return False


def check(req: dict, doc: dict, lam: dict | None, rc: int, out: str) -> list[str]:
    """Problems with one request's outcome; empty when it is correct.

    ``req`` holds ``kind``, ``coeff``, ``type`` and ``n``; ``lam`` is the
    λ the request read (cone and check requests).
    """
    try:
        obj = json.loads(out)
    except ValueError:
        return [f"exit {rc}, output is not JSON: {out[:200]!r}"]
    if not isinstance(obj, dict):
        return [f"exit {rc}, output is not a JSON object: {out[:200]!r}"]
    problems = []
    if out != canonical(obj) + "\n":
        problems.append("output is not canonical JSON")
    kind, coeff, n = req["kind"], req["coeff"], req["n"]
    expect_rc = 0
    if kind == "homology":
        reduced, torsion = betti(req["type"], coeff)
        want = {"coeff": coeff, "name": doc["name"], "reduced": list(reduced),
                "torsion": torsion}
        if obj != want:
            problems.append(f"homology {obj} != {want}")
    elif kind == "cone":
        problems += _check_cone(req, doc, lam, obj)
    elif kind == "random":
        problems += _check_charfn(doc, n, obj)
    elif kind == "check":
        expect_rc = _check_verdicts(doc, lam, coeff, obj, problems)
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}")
    return problems


def _check_cone(req: dict, doc: dict, lam: dict | None, obj: dict) -> list[str]:
    n = req["n"]
    problems = []
    inputs = obj.get("inputs", {})
    want_inputs = {"kind": "cone", "poset": doc["name"], "n": n,
                   "field": req["coeff"], "charfn": lam}
    for key, value in want_inputs.items():
        if inputs.get(key) != value:
            problems.append(f"inputs.{key} = {inputs.get(key)!r}, expected {value!r}")
    failed = sorted(k for k, ok in obj.get("checks", {}).items() if ok is not True)
    if failed or not obj.get("checks"):
        problems.append(f"report checks failed: {failed}")
    reduced, _ = betti(req["type"], req["coeff"])
    want = h_double_prime(face_counts(doc["facets"]), reduced)
    cells = obj.get("tables", {}).get("eainf", {})
    diag = tuple(cells.get(f"{q},{q}", 0) for q in range(n + 1))
    if diag != want:
        problems.append(f"eainf diagonal {diag} != h'' {want}")
    return problems


def _check_charfn(doc: dict, n: int, obj: dict) -> list[str]:
    if obj.get("format") != "charfn-v1" or obj.get("n") != n:
        return [f"not a charfn-v1 document of rank {n}"]
    vec = obj["assignment"]
    faces = all_faces(doc["facets"])
    if sorted(vec) != sorted(f[0] for f in faces if len(f) == 1):
        return ["assignment does not cover exactly the vertices"]
    problems = [f"vertex {v}: {x} is not primitive of length {n}"
                for v, x in vec.items() if len(x) != n or gcd(*x) != 1]
    for face in faces:
        if rational_rank([vec[v] for v in face]) < len(face):
            problems.append(f"λ is singular on face {','.join(face)}")
            break
    return problems


def _check_verdicts(doc: dict, lam: dict, coeff: str, obj: dict, problems: list) -> int:
    """Compare ``charfn check`` with the minors (z) or elimination (q)."""
    vec = lam["assignment"]
    if coeff == "z":
        valid = integral_valid
    else:
        valid = lambda rows: rational_rank(rows) == len(rows)  # noqa: E731
    want = {",".join(f): valid([vec[v] for v in f]) for f in all_faces(doc["facets"])}
    if obj.get("coeff") != coeff or obj.get("verdicts") != want:
        problems.append(f"per-face verdicts over {coeff} disagree with the oracle")
    bad = sorted((fid.count(","), fid) for fid, ok in want.items() if not ok)
    first = None if not bad else bad[0][1]
    got = obj.get("first_failure")
    if obj.get("passed") is not (not bad) or (got or {}).get("simplex") != first:
        problems.append(f"passed/first_failure {obj.get('passed')}/{got} != {first}")
    return 1 if bad else 0
