#!/usr/bin/env python3
"""eprb-delay benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

It starts worker.py, which runs passes of the workload in a closed loop: one
caller, each pass starting when the previous one returned.  Between passes
the worker waits while this process checks the pass outputs and deletes the
pass directory and times a few fresh interpreters importing
``eprb_delay.cli`` (set-up).  Pass 0 is a warm-up: checked, but left out of the
timings.  All files go under ``.bench_out/`` in the checkout.

The last stdout line is the result: ``correct``, ``attempted`` and
``failed`` passes, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  The line before it holds the details:
each timing's median, high percentile and sample count, and the run
environment.  The same details go to ``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
SETUP_PROBES_PER_PASS = 2
# one BLAS thread; and no transparent huge pages for numpy arrays, so that
# peak memory and timings do not depend on whether the shared machine has
# huge pages free
BENCH_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMPY_MADVISE_HUGEPAGE": "0"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import eprb_delay.cli; "
    "print(time.perf_counter() - t)"
)

STEP_METRICS = {"simulate_s": "simulate", "spectrum_s": "spectrum", "chsh_s": "chsh"}


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None,
           "p_high": None, "p_high_value": None, "samples": list(values)}
    if n >= 20:
        pct = math.floor(100.0 * (1.0 - 10.0 / n))
        out["p_high"] = pct
        out["p_high_value"] = sorted(values)[math.ceil(pct / 100.0 * n) - 1]
    return out


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def probe_setup(env: dict) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing eprb_delay.cli, and the
    import time it measured itself."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"importing eprb_delay.cli failed:\n{done.stderr}")
    return wall, float(done.stdout.strip())


def run_worker(args, env: dict, run_dir: Path, spans: Path, checker,
               between) -> tuple[list, dict]:
    """Drive worker.py pass by pass, calling ``between`` after each pass has
    been checked; returns the pass records and the worker's final report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--run-dir", str(run_dir), "--spans", str(spans)]
    passes, final = [], None
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg.get("done"):
                final = msg
                break
            d = Path(msg["dir"])
            if msg["error"] is not None:
                msg["failures"] = [msg["error"]]
            else:
                try:
                    msg["failures"] = checker(d, msg["results"])
                except (OSError, KeyError, ValueError, TypeError) as err:
                    msg["failures"] = [f"check could not run: {err!r}"]
            shutil.rmtree(d)
            passes.append(msg)
            between()
            proc.stdin.write("next\n")
            proc.stdin.flush()
        proc.stdin.close()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or final is None:
        raise RuntimeError(f"worker exited {rc} without a final report")
    return passes, final


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "eprb_delay" / "__init__.py").is_file():
        print(f"no eprb_delay package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    os.environ.update(BENCH_ENV)
    sys.path[:0] = [str(SRC)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    # set-up probes run between passes, so that they sample the machine over
    # the whole run, like the passes, rather than in one burst
    setup: list[tuple[float, float]] = []

    def between() -> None:
        setup.extend(probe_setup(env) for _ in range(SETUP_PROBES_PER_PASS))

    checker = workloads.Checker(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{tag}-spans.json"
    run_dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        passes, final = run_worker(args, env, run_dir, spans_path, checker, between)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup += [probe_setup(env) for _ in range(SETUP_SAMPLES - len(setup))]
    setup_walls, import_times = zip(*setup)

    failed = [q for q in passes if q["failures"]]
    untraced = [q for q in passes if not q["traced"] and q["pass"] > 0]
    stats = {
        "setup_s": summary(setup_walls),
        "import.cli_s": summary(import_times),
        "pass_s": summary([q["pass_s"] for q in untraced]),
    }
    for metric, step in STEP_METRICS.items():
        stats[metric] = summary([q["step_s"][step] for q in untraced if step in q["step_s"]])

    if args.trace:
        traced = [q for q in passes if q["traced"]]
        spans = json.loads(spans_path.read_text())
        traced_passes = {q["pass"] for q in traced}
        metrics = tracing.layer_metrics([s for s in spans if s["pass"] in traced_passes])
        stats["trace.pass_s"] = summary([q["pass_s"] for q in traced])
        metrics["trace.pass_s"] = stats["trace.pass_s"]["median"]
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - stats["pass_s"]["median"]
        metrics["import.cli_s"] = stats["import.cli_s"]["median"]
        for metric in STEP_METRICS:
            metrics[metric] = stats[metric]["median"] or 0.0
    else:
        metrics = {
            "pass_s": stats["pass_s"]["median"],
            "setup_s": stats["setup_s"]["median"],
            "peak_rss_mb": passes[0]["peak_rss_mb"],
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": "one caller in one single-threaded worker process",
        "stats": stats,
        "peak_rss_mb_all_passes": passes[-1]["peak_rss_mb"],
        "failed_frac": len(failed) / len(passes),
        "failures": [{"pass": q["pass"], "failures": q["failures"]} for q in failed],
        "counter_errors": final["counter_errors"],
        "environment": environment(),
    }
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT / f"{tag}.json").write_text(json.dumps({**details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
