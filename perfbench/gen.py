"""Seeded inputs for the benchmark: the ladder, relabelled documents and λ.

The ladder is built once per run with ``sposet.barycentric`` and stored
as plain facet lists (``ladder.json``).  Every request then gets its own
document: the rung's facets under a seeded vertex relabelling and a
seeded facet order.  Relabelling changes the bytes, the sorted vertex
order and so every boundary matrix, but not the topological type, so
the known answers in ``oracle`` hold for every seed.

Request ``i`` of a workload depends only on ``(workload, seed, i)``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

# rung -> (base complex, number of barycentric subdivisions, topological type)
RUNGS = {
    "torus7": ("torus7", 0, "torus"),
    "sd(torus7)": ("torus7", 1, "torus"),
    "boundary_simplex(6)": ("boundary_simplex(6)", 0, "S5"),
    "sd(sd(boundary_simplex(3)))": ("boundary_simplex(3)", 2, "S2"),
    "sd(sd(rp2_6))": ("rp2_6", 2, "RP2"),
    "sd(sd(torus7))": ("torus7", 2, "torus"),
}

# Cycles have an odd length, so no boundary between two kinds of request
# sits at the median latency.
CONE_RUNGS = ("torus7", "sd(torus7)", "boundary_simplex(6)", "sd(sd(boundary_simplex(3)))")
CONE_FIELDS = ("q", "fp:2", "fp:3")
HOMOLOGY_MIX = (
    ("sd(sd(torus7))", "q"),
    ("sd(sd(rp2_6))", "z"),
    ("sd(sd(rp2_6))", "fp:2"),
    ("sd(sd(rp2_6))", "fp:3"),
    ("sd(sd(boundary_simplex(3)))", "z"),
)
# Lower bounds on the subdivided rungs make `charfn random` exhaust its
# 10,000-attempt rejection budget (bound 3) or need ~11 attempts on
# average with a tail past 60 (bound 4 on sd(torus7)), which a run of a
# few hundred samples cannot average out.
CHARFN_BOUNDS = {
    "sd(sd(boundary_simplex(3)))": (5, 5),
    "sd(torus7)": (5, 5),
    "boundary_simplex(6)": (2, 5),
    "torus7": (2, 5),
}
# (step, rung): "random" samples a λ; "z" and "q" check the last one
CHARFN_MIX = (
    ("random", "sd(sd(boundary_simplex(3)))"),
    ("z", "sd(sd(boundary_simplex(3)))"),
    ("q", "sd(sd(boundary_simplex(3)))"),
    ("random", "sd(torus7)"),
    ("z", "sd(torus7)"),
    ("random", "boundary_simplex(6)"),
    ("z", "boundary_simplex(6)"),
    ("random", "torus7"),
    ("z", "torus7"),
)

WORKLOADS = {
    "cone_report": {
        "cycle": 2 * len(CONE_RUNGS) + 1,
        "why": "quotient cone --json on the ladder: link homology, "
        "classification, face vectors and the spectral tables; 4 of 9 carry a λ",
    },
    "homology_large": {
        "cycle": len(HOMOLOGY_MIX),
        "why": "homology --json on subdivided complexes of 434 to 1512 faces: a few "
        "large dense Smith forms, with no links and no spectral work",
    },
    "charfn_sample": {
        "cycle": len(CHARFN_MIX),
        "why": "charfn random, then charfn check over z (and once over q) on its "
        "output: very many tiny Smith forms; the guard for SNF and cache changes",
    },
}


def build_ladder(sposet) -> dict:
    """Facet lists, dimensions and f-vectors of every rung."""
    ladder = {}
    for rung, (name, subdivisions, kind) in RUNGS.items():
        if name == "boundary_simplex(6)":
            S = sposet.from_facets(combinations([f"v{i}" for i in range(1, 8)], 6))
        else:
            S = sposet.corpus(name)
        for _ in range(subdivisions):
            S = sposet.barycentric(S)
        facets = sorted(
            list(S.element(m).vertices) for m in S.maximal_ids()
        )
        ladder[rung] = {"type": kind, "n": S.n, "facets": facets,
                        "f": list(face_counts(facets))}
    return ladder


def face_counts(facets) -> tuple[int, ...]:
    """(f_-1, f_0, ...) by enumerating every nonempty subset of a facet."""
    faces = set()
    for fs in facets:
        for k in range(1, len(fs) + 1):
            faces.update(frozenset(c) for c in combinations(fs, k))
    n = max(len(fs) for fs in facets)
    counts = [1] + [0] * n
    for face in faces:
        counts[len(face)] += 1
    return tuple(counts)


def relabel(rung: str, ladder: dict, rng: random.Random) -> dict:
    """A scomplex-v1 document of the rung under a seeded relabelling."""
    facets = ladder[rung]["facets"]
    vertices = sorted({v for fs in facets for v in fs})
    labels = [f"x{k}" for k in range(len(vertices))]
    rng.shuffle(labels)
    new = dict(zip(vertices, labels))
    out = []
    for fs in facets:
        vs = [new[v] for v in fs]
        rng.shuffle(vs)
        out.append(vs)
    rng.shuffle(out)
    return {"format": "scomplex-v1", "name": rung, "facets": out}


def _draw(rng: random.Random, n: int, bound: int) -> tuple[int, ...]:
    while True:
        vec = [rng.randint(-bound, bound) for _ in range(n)]
        if any(vec):
            g = gcd(*vec)
            return tuple(x // g for x in vec)


def rational_rank(rows) -> int:
    """Rank over Q by exact elimination; rows are scaled, never divided."""
    m = [list(row) for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c]
                m[r] = [p * a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def all_faces(facets) -> list[tuple[str, ...]]:
    """Every face as a sorted vertex tuple, in (size, vertices) order."""
    faces = set()
    for fs in facets:
        fs = sorted(fs)
        for k in range(1, len(fs) + 1):
            faces.update(combinations(fs, k))
    return sorted(faces, key=lambda f: (len(f), f))


def sample_charfn(doc: dict, n: int, rng: random.Random, bound: int = 3) -> dict:
    """A charfn-v1 document valid over Q on every face of ``doc``.

    Draws a vector per vertex, then redraws one vertex of each face whose
    vectors are dependent until a full pass finds none.
    """
    faces = all_faces(doc["facets"])
    vertices = [f[0] for f in faces if len(f) == 1]
    vec = {v: _draw(rng, n, bound) for v in vertices}
    dirty = True
    while dirty:
        dirty = False
        for face in faces:
            while rational_rank([vec[v] for v in face]) < len(face):
                vec[rng.choice(face)] = _draw(rng, n, bound)
                dirty = True
    return {"format": "charfn-v1", "n": n,
            "assignment": {v: list(vec[v]) for v in vertices}}


@dataclass
class Request:
    """One CLI call.  ``argv`` names files by key; ``files`` holds their text."""

    kind: str
    rung: str
    coeff: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    # charfn check: reads the λ the last `charfn random` printed, and its document
    uses_sample: bool = False


def canonical(doc) -> str:
    """JSON as sposet emits it: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def request(workload: str, seed: int, i: int, ladder: dict) -> Request:
    """Request ``i`` of a workload, fixed by ``(workload, seed, i)``."""
    rng = random.Random(f"{workload}:{seed}:{i}")
    cycle, pos = divmod(i, WORKLOADS[workload]["cycle"])
    if workload == "cone_report":
        # each rung with λ over q, then without λ over a rotating field;
        # torus7 once more without λ, over the next field
        rung = CONE_RUNGS[pos // 2] if pos < 2 * len(CONE_RUNGS) else CONE_RUNGS[0]
        n = ladder[rung]["n"]
        doc = relabel(rung, ladder, rng)
        argv = ["quotient", "cone", "{doc}", "--n", str(n)]
        files = {"doc": canonical(doc)}
        if pos % 2 == 0 and pos < 2 * len(CONE_RUNGS):
            coeff = "q"
            files["lam"] = canonical(sample_charfn(doc, n, rng))
            argv += ["--charfn", "{lam}"]
        else:
            shift = CONE_RUNGS.index(rung) + pos // (2 * len(CONE_RUNGS))
            coeff = CONE_FIELDS[(seed + cycle + shift) % len(CONE_FIELDS)]
        return Request("cone", rung, coeff, argv + ["--field", coeff, "--json"], files)
    if workload == "homology_large":
        rung, coeff = HOMOLOGY_MIX[pos]
        doc = relabel(rung, ladder, rng)
        return Request("homology", rung, coeff,
                       ["homology", "{doc}", "--coeff", coeff, "--json"],
                       {"doc": canonical(doc)})
    if workload == "charfn_sample":
        step, rung = CHARFN_MIX[pos]
        if step != "random":
            return Request("check", rung, step,
                           ["charfn", "check", "{lam}", "{doc}", "--coeff", step, "--json"],
                           uses_sample=True)
        lo, hi = CHARFN_BOUNDS[rung]
        doc = relabel(rung, ladder, rng)
        argv = ["charfn", "random", "{doc}", "--n", str(ladder[rung]["n"]),
                "--seed", str(rng.randrange(1, 2**31)),
                "--bound", str(rng.randint(lo, hi))]
        return Request("random", rung, "q", argv, {"doc": canonical(doc)})
    raise ValueError(f"unknown workload {workload!r}")
