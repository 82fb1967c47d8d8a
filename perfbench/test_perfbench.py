"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import gen
import oracle
import tracer

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import sposet  # noqa: E402
import sposet.cli  # noqa: E402


@pytest.fixture(scope="module")
def ladder():
    return gen.build_ladder(sposet)


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = sposet.cli.main(argv)
    return rc, out.getvalue()


def write_request(req: gen.Request, tmp_path: Path) -> list[str]:
    paths = {}
    for key, text in req.files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        Path(paths[key]).write_text(text)
    return [a.format(**paths) for a in req.argv]


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_generator_is_deterministic(workload, ladder):
    for i in range(gen.WORKLOADS[workload]["cycle"]):
        assert gen.request(workload, 7, i, ladder) == gen.request(workload, 7, i, ladder)
    a = gen.request(workload, 7, 0, ladder)
    b = gen.request(workload, 8, 0, ladder)
    assert a.files["doc"] != b.files["doc"]


def test_relabelled_documents_keep_their_invariants(ladder):
    rung = "sd(torus7)"
    docs = [gen.relabel(rung, ladder, random.Random(s)) for s in (1, 2)]
    assert docs[0]["facets"] != docs[1]["facets"]
    for doc in docs:
        S = sposet.from_facets(doc["facets"])
        assert gen.face_counts(doc["facets"]) == tuple(ladder[rung]["f"])
        assert sposet.reduced_betti(S, sposet.RATIONALS).reduced == oracle.betti("torus", "q")[0]


def test_sampled_charfn_is_valid_on_every_face(ladder):
    doc = gen.relabel("sd(torus7)", ladder, random.Random(3))
    lam = gen.sample_charfn(doc, 3, random.Random(3))
    vec = lam["assignment"]
    assert all(gen.rational_rank([vec[v] for v in f]) == len(f)
               for f in gen.all_faces(doc["facets"]))


def test_h_double_prime_of_torus7():
    torus = sposet.corpus("torus7")
    f = gen.face_counts([torus.element(m).vertices for m in torus.maximal_ids()])
    assert oracle.h_double_prime(f, oracle.betti("torus", "q")[0]) == (1, 4, 4, 1)


def test_checker_accepts_a_report_and_rejects_a_corrupted_one(ladder, tmp_path):
    req = gen.request("cone_report", 1, 0, ladder)
    rc, out = run_cli(write_request(req, tmp_path))
    meta = {"kind": "cone", "coeff": req.coeff, "type": "torus", "n": 3}
    doc, lam = json.loads(req.files["doc"]), json.loads(req.files["lam"])
    assert oracle.check(meta, doc, lam, rc, out) == []

    report = json.loads(out)
    report["tables"]["eainf"]["1,1"] += 1
    assert oracle.check(meta, doc, lam, rc, gen.canonical(report) + "\n")

    report = json.loads(out)
    report["checks"]["euler_conserved"] = False
    assert oracle.check(meta, doc, lam, rc, gen.canonical(report) + "\n")

    assert oracle.check(meta, doc, lam, rc, json.dumps(json.loads(out)) + "\n")
    assert oracle.check(meta, doc, lam, 1, out)


def test_checker_rejects_a_singular_charfn(ladder):
    doc = gen.relabel("torus7", ladder, random.Random(1))
    lam = gen.sample_charfn(doc, 3, random.Random(1))
    meta = {"kind": "random", "coeff": "q", "type": "torus", "n": 3}
    assert oracle.check(meta, doc, None, 0, gen.canonical(lam) + "\n") == []
    a, b = next(f for f in gen.all_faces(doc["facets"]) if len(f) == 2)
    lam["assignment"][b] = [-x for x in lam["assignment"][a]]
    problems = oracle.check(meta, doc, None, 0, gen.canonical(lam) + "\n")
    assert any("singular" in p for p in problems)


def test_checker_verdicts_over_z_follow_the_minors():
    doc = {"name": "edge", "facets": [["a", "b"]]}
    lam = {"format": "charfn-v1", "n": 2, "assignment": {"a": [1, 0], "b": [1, 2]}}
    meta = {"kind": "check", "coeff": "z", "type": None, "n": 2}
    want = {"coeff": "z", "passed": False, "verdicts": {"a": True, "b": True, "a,b": False},
            "first_failure": {"simplex": "a,b", "invariant_factors": [1, 2]}}
    out = gen.canonical(want) + "\n"
    assert oracle.check(meta, doc, lam, 1, out) == []
    assert oracle.check(meta, doc, lam, 0, out)
    want["verdicts"]["a,b"] = True
    assert oracle.check(meta, doc, lam, 1, gen.canonical(want) + "\n")


def test_self_time_subtracts_the_union_of_children():
    #        0 root 0..100
    #        1 a    10..40   (child 3 at 20..30)
    #        2 b    50..90
    #        4 c    80..95   overlaps b
    #        5 d    95..120  runs past the root's end
    spans = [(0, 100, -1), (10, 40, 0), (50, 90, 0), (20, 30, 1), (80, 95, 0), (95, 120, 0)]
    start, end, parent = (array("q", col) for col in zip(*spans))
    selfs = tracer.self_times(start, end, parent)
    assert selfs == [100 - (30 + 45 + 5), 30 - 10, 40, 10, 15, 25]


def test_summary_sums_self_times_by_function_and_stage():
    names = [tracer.KEY_SPAN, "cli.main", "homology.smith_normal_form",
             "charfn.random_q_charfn", "charfn.check"]
    spans = [(0, 0, -1, 1, 0, 100), (0, 1, 0, 3, 10, 60), (0, 2, 1, 4, 20, 50),
             (0, 3, 2, 2, 30, 40), (0, 4, 1, 4, 50, 55)]
    cols = {c: array("q", col) for c, col in zip(("req", "sid", "parent", "func", "start", "end"),
                                                 zip(*spans))}
    header = {"names": names, "snf_cells": 6, "snf_repeats": 1}
    summary = tracer.summarize(header, cols)
    assert summary["root_ns"] == 100
    assert summary["self_ns"]["cli.main"] == 50
    assert summary["self_ns"]["charfn.check"] == 20 + 5
    assert summary["sample_attempts"] == 2
    assert summary["stages_ns"]["SNF"] == 10
    assert sum(summary["stages_ns"].values()) == 100


def test_tracer_wraps_every_binding_and_keeps_output(ladder, tmp_path):
    req = gen.request("cone_report", 2, 1, ladder)
    argv = write_request(req, tmp_path)
    script = (
        "import sys, json, io, contextlib\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]\n"
        "import sposet.cli, tracer\n"
        "t = tracer.Tracer(); t.install('sposet')\n"
        "m = {k: sys.modules['sposet.' + k] for k in ('classify', 'facevec', 'spectral', 'homology')}\n"
        "bindings = {mod.reduced_betti for mod in m.values()}\n"
        "assert len(bindings) == 1 and bindings.pop().__wrapped__\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    sys.modules['sposet.cli'].main({argv!r})\n"
        "t.dump(sys.argv[1])\n"
        "sys.stdout.write(out.getvalue())\n"
    )
    traced = subprocess.run([sys.executable, "-c", script, str(tmp_path / "spans")],
                            capture_output=True, text=True, check=True).stdout
    assert traced == run_cli(argv)[1]
    summary = tracer.summarize(*tracer.load(str(tmp_path / "spans")))
    assert summary["calls"]["cli.main"] == 1
    assert summary["calls"]["homology.smith_normal_form"] > 0
    assert summary["calls"]["poset.link"] > 0
