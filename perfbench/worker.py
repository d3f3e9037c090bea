"""Benchmark worker: runs one workload's passes back to back in one process.

Started by run.py with the checkout's src/ on PYTHONPATH.  After each pass
it writes one JSON line to stdout with the pass directory, the timings and
its own peak resident memory so far.  It then waits for a line on stdin, so
that run.py can check and delete the pass outputs while nothing else runs.

Pass 0 is a warm-up that fills the allocator and caches; it is checked but
not timed.  After it, passes run until they have taken about ``--seconds``
seconds of wall time: a pass starts only if half of the previous one still
fits, and at least one timed pass runs.  With ``--trace 1`` the passes after
the warm-up alternate between traced and untraced, and the spans go to
``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import eprb_delay
import tracing
import workloads


def run_pass(workload: str, seed: int, d: Path) -> tuple[dict, dict, float, str | None]:
    times, results = {}, {}
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            for name, step in workloads.steps(workload, seed, d):
                t0 = time.perf_counter()
                results[name] = step()
                times[name] = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 -- a failing step fails the pass, not the run
            error = traceback.format_exc()
    total = time.perf_counter() - start
    if error is None and any(isinstance(r, int) and r != 0 for r in results.values()):
        error = captured.getvalue()[-2000:]
    return times, results, total, error


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    args = p.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    measured = last = 0.0
    k = 0
    min_passes = 3 if tracer is not None else 2  # the warm-up, then one of each kind
    while k < min_passes or measured + 0.5 * last < args.seconds:
        traced = tracer is not None and k % 2 == 1
        d = Path(tempfile.mkdtemp(prefix=f"pass{k}-", dir=args.run_dir))
        if traced:
            tracer.pass_index = k
            tracer.install(eprb_delay)
            try:
                times, results, total, error = tracer.run(
                    "bench.pass", run_pass, args.workload, args.seed, d
                )
            finally:
                tracer.uninstall()
        else:
            times, results, total, error = run_pass(args.workload, args.seed, d)
        if k > 0:
            measured += total
        last = total
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        msg = {"pass": k, "dir": str(d), "traced": traced, "pass_s": total,
               "step_s": times, "results": results, "error": error, "peak_rss_mb": peak_rss_mb}
        print(json.dumps(msg), flush=True)
        if sys.stdin.readline().strip() != "next":
            break
        k += 1

    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps({"done": True, "counter_errors": tracer.counter_errors if tracer else []}),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
