"""One benchmark child: a closed loop of in-process ``sposet.cli.main`` calls.

Usage: ``python3 perfbench/worker.py JOB.json`` (written by ``run.py``).
One client sends request ``i + 1`` only after request ``i`` returned.
Each request is timed around ``main(argv)`` alone; writing its input
files and recording its output happen between requests, untimed.  Every
outcome is appended to the results file at once, so the child holds no
growing state of its own and its peak RSS is the program's.

The loop stops at a cycle boundary (every rung and field of the mix done
equally often) and not before ``min_requests``: after ``cycles`` cycles
when that is set, otherwise at the first boundary after ``seconds`` of
loop time.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import sposet.cli as cli  # the set-up every CLI call pays

    from gen import WORKLOADS, request

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("sposet")
    with open(job["ladder"], encoding="utf-8") as fh:
        ladder = json.load(fh)

    workload, seed, workdir = job["workload"], job["seed"], job["workdir"]
    cycle = WORKLOADS[workload]["cycle"]
    busy = 0.0
    sample = {}
    start = time.perf_counter()
    with open(job["results"], "w", encoding="utf-8") as results:
        i = 0
        while True:
            req = request(workload, seed, i, ladder)
            paths = {}
            for key, text in req.files.items():
                paths[key] = f"{workdir}/r{i}.{key}.json"
                with open(paths[key], "w", encoding="utf-8") as fh:
                    fh.write(text)
            if req.uses_sample:
                paths["doc"] = sample["doc"]
                paths["lam"] = f"{workdir}/r{i}.lam.json"
                with open(paths["lam"], "w", encoding="utf-8") as fh:
                    fh.write(sample["out"])
            argv = [a.format(**paths) for a in req.argv]
            if tracer is not None:
                tracer.request = i
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
            busy += dt
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record = {"i": i, "kind": req.kind, "rung": req.rung, "coeff": req.coeff,
                      "argv": argv, "paths": paths, "rc": rc, "ms": dt * 1e3,
                      "rss_mb": rss_mb, "out": out.getvalue(), "err": err.getvalue()[-2000:]}
            results.write(json.dumps(record) + "\n")
            if req.kind == "random":
                sample = {"doc": paths["doc"], "out": out.getvalue()}
            i += 1
            if i % cycle == 0 and i >= job["min_requests"]:
                if job["cycles"] and i // cycle >= job["cycles"]:
                    break
                if not job["cycles"] and time.perf_counter() - start >= job["seconds"]:
                    break
    summary = {"requests": i, "busy_s": busy, "loop_s": time.perf_counter() - start}
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main(sys.argv[1])
