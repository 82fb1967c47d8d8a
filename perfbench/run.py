"""sposet benchmark: seeded closed-loop CLI workloads, checked and traced.

Run from the root of a sposet checkout:

    python3 perfbench/run.py --workload cone_report --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

``--trace 0`` measures the end-to-end metrics: the set-up time of fresh
interpreters, then one child running the workload's closed loop.
``--trace 1`` runs a fixed prefix of the same requests twice, in two
children, untraced and then traced from outside (``tracer.py``); it
reports the per-layer metrics, the tracing overhead and each stage's
share of the time, and demands byte-identical outputs from both.

Every output is checked against ``oracle.py``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer
from gen import WORKLOADS, build_ladder

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
SETUP_SPAWNS = 11
# Requests in whole cycles that fix the peak-RSS sample point and the
# traced prefix, so both measure the same work whatever the speed.
PREFIX_CYCLES = {"cone_report": 20, "homology_large": 1, "charfn_sample": 16}
CHILD_TIMEOUT_S = 160
_READY = "import sys; sys.path.insert(0, 'src'); import sposet.cli; print('ready', flush=True)"


class BenchError(Exception):
    pass


def setup_times(count: int) -> list[float]:
    """Seconds from spawning an interpreter to ``import sposet.cli`` done.

    One extra spawn first, untimed, writes the bytecode cache.
    """
    times = []
    for _ in range(count + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _READY], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise BenchError("a set-up child did not exit") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("a set-up child failed to import sposet.cli")
        times.append(elapsed)
    return times[1:]


def run_child(workload: str, seed: int, seconds: float, trace: bool, cycles: int,
              rundir: Path, ladder_path: Path) -> tuple[dict, list[dict]]:
    tag = "traced" if trace else "plain"
    workdir = rundir / tag
    workdir.mkdir()
    cycle = WORKLOADS[workload]["cycle"]
    job = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cycles": cycles, "min_requests": PREFIX_CYCLES[workload] * cycle,
        "src": str(Path("src").resolve()), "ladder": str(ladder_path),
        "workdir": str(workdir), "results": str(workdir / "results.jsonl"),
        "summary": str(workdir / "summary.json"), "spans": str(rundir / "spans"),
    }
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag} child exited with {proc.returncode}")
    summary = json.loads(Path(job["summary"]).read_text(encoding="utf-8"))
    with open(job["results"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return summary, records


def check_records(records: list[dict], ladder: dict) -> list[str]:
    """Known-answer problems, one line per failing request."""
    failures = []
    for rec in records:
        if rec["rc"] is None:
            failures.append(f"request {rec['i']} raised: {rec['err'][-300:]}")
            continue
        rung = ladder[rec["rung"]]
        try:
            doc, lam = (json.loads(Path(rec["paths"][key]).read_text(encoding="utf-8"))
                        if key in rec["paths"] else None for key in ("doc", "lam"))
        except ValueError:
            failures.append(f"request {rec['i']}: its input is not JSON "
                            "(the request it depends on failed)")
            continue
        req = {"kind": rec["kind"], "coeff": rec["coeff"], "type": rung["type"],
               "n": rung["n"]}
        problems = oracle.check(req, doc, lam, rec["rc"], rec["out"])
        if problems:
            failures.append(f"request {rec['i']} ({rec['kind']} {rec['rung']} "
                            f"{rec['coeff']}): {'; '.join(problems)}")
    return failures


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec["out"].encode("utf-8") + b"\0")
    return h.hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, rundir: Path, ladder: dict,
            ladder_path: Path) -> tuple[dict, int, list[str]]:
    spawns = setup_times(SETUP_SPAWNS)
    summary, records = run_child(workload, seed, seconds, False, 0, rundir, ladder_path)
    failures = check_records(records, ladder)
    lat = [rec["ms"] for rec in records]
    n = len(lat)
    prefix = PREFIX_CYCLES[workload] * WORKLOADS[workload]["cycle"]
    metrics = {
        "req_per_s": (n / summary["busy_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "setup_s": (statistics.median(spawns), "s"),
        "peak_rss_mb": (records[prefix - 1]["rss_mb"], "MB"),
    }
    print(f"{workload} seed {seed}: {n} requests in {summary['busy_s']:.2f} s busy "
          f"({summary['loop_s']:.2f} s loop), failed {len(failures)}, "
          f"fail_frac {len(failures) / n:.4f}, output digest {digest(records)}")
    counts = {"req_per_s": f"n={n} requests", "latency_p50_ms": f"n={n} requests",
              "setup_s": f"n={len(spawns)} spawns",
              "peak_rss_mb": f"after the first {prefix} requests"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.4f} {unit:<4} ({counts[name]})")
    if n >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"  {'latency_p90_ms':<16} {p90:12.4f} ms   (n={n} requests)")
    else:
        print(f"  latency_p90_ms   omitted: {n} requests leave fewer than ten beyond it")
    return metrics, n, failures


def measure_traced(workload: str, seed: int, rundir: Path, ladder: dict,
                   ladder_path: Path) -> tuple[dict, int, list[str]]:
    cycles = PREFIX_CYCLES[workload]
    plain, plain_recs = run_child(workload, seed, 0, False, cycles, rundir, ladder_path)
    traced, traced_recs = run_child(workload, seed, 0, True, cycles, rundir, ladder_path)
    failures = check_records(plain_recs, ladder) + check_records(traced_recs, ladder)
    if len(plain_recs) != len(traced_recs):
        raise BenchError("traced and untraced children ran different request counts")
    for a, b in zip(plain_recs, traced_recs):
        if (a["rc"], a["out"]) != (b["rc"], b["out"]):
            failures.append(f"request {a['i']}: traced output differs from untraced")
    requests = traced["requests"]
    summary = tracer.summarize(*tracer.load(str(rundir / "spans")))
    metrics = tracer.layer_metrics(summary, requests)
    metrics["trace.overhead_pct"] = ((traced["busy_s"] / plain["busy_s"] - 1) * 100, "%")
    print(f"{workload} seed {seed} traced: {requests} requests ({cycles} cycles), "
          f"failed {len(failures)}, digests {digest(plain_recs)} untraced / "
          f"{digest(traced_recs)} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:14.4f} {unit}")
    total = summary["root_ns"]
    print(f"  stage shares of {total / 1e6:.1f} ms traced request time:")
    for stage, ns in sorted(summary["stages_ns"].items(), key=lambda kv: -kv[1]):
        print(f"    {stage:<32} {100 * ns / total:6.2f} %")
    return metrics, plain["requests"] + requests, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool, ladder: dict):
    rundir = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    ladder_path = rundir / "ladder.json"
    ladder_path.write_text(json.dumps(ladder), encoding="utf-8")
    print(f"{workload}: " + WORKLOADS[workload]["why"])
    if trace:
        result = measure_traced(workload, seed, rundir, ladder, ladder_path)
    else:
        result = measure(workload, seed, seconds, rundir, ladder, ladder_path)
    for failure in result[2][:10]:
        print(f"  FAILED {failure}")
    for child in ("plain", "traced"):
        shutil.rmtree(rundir / child, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/sposet/cli.py").is_file():
        print("perfbench: run from the root of a sposet checkout "
              "(src/sposet/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import sposet

    ladder = build_ladder(sposet)
    print("face counts (f_-1, f_0, ...): " + ", ".join(
        f"{rung} {tuple(ladder[rung]['f'])}" for rung in ladder))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            got, n, failures = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), ladder)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in got.items()})
            attempted += n
            failed += len(failures)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
