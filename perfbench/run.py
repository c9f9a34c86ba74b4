"""prodexp benchmark: three CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py                  # every workload, both modes
    python3 perfbench/run.py --quick ...      # small truncations (self-test)

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory.  One run of one workload:

1. set-up, three times: a fresh process imports prodexp and fills a new,
   empty module cache directory with the modules the pass reads;
   ``setup_s`` is the median of these processes' wall times;
2. the pass: one more process runs whole rounds of the workload through
   ``prodexp.cli.main`` against the last cache and checks every output;
   ``wall_s`` is the median round.

Both times are scaled by a fixed reference computation timed just before
and just after each set-up process and each round (speed.py), to the
machine speed at which the reference takes 0.2 s; the raw seconds are
kept in the results file.

Every child process gets ``OPENBLAS_NUM_THREADS=1`` (see README.md) and
an explicit ``--cache-dir``; the inherited ``PRODEXP_CACHE_DIR`` is
dropped.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``,
named and in the units that BENCHMARK.json lists.  Per-run results with
an environment block, and span files of traced runs, go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the driver times the speed reference too, so it pins BLAS before numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from speed import reference_s, scaled                      # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"
WORKLOADS = ["catalog-n8", "holonomy-sweep", "exact-build"]
SETUP_REPEATS = 3
DEADLINE_S = 170          # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    # one BLAS thread: on 2 CPUs the default pool oversubscribes the
    # cores and its timings measure the scheduler, not the program
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("PRODEXP_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def run_child(argv, deadline):
    """Run the worker to completion; its stdout goes to our stderr."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before " + argv[0])
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + argv,
                              env=child_env(), stdout=sys.stderr,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload, seed, seconds, trace, quick):
    """One run: set-up three times, one pass; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    e2e_units, layer_units = declared_metrics()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    common = ["--workload", workload] + (["--quick"] if quick else [])
    try:
        setup, setup_raw = [], []
        reference_s()           # the first call pays one-time costs
        ref_before = reference_s()
        for i in range(SETUP_REPEATS):
            cache = tmp / f"cache{i}"
            t0 = time.perf_counter()
            run_child(["setup", "--cache-dir", str(cache)] + common, deadline)
            setup_raw.append(time.perf_counter() - t0)
            ref_after = reference_s()
            setup.append(scaled(setup_raw[-1], ref_before, ref_after))
            ref_before = ref_after
            if i:
                shutil.rmtree(tmp / f"cache{i - 1}")
        tag = f"{workload}-seed{seed}-trace{trace}"
        spans_path = RESULTS / f"spans-{workload}.jsonl"     # latest run only
        out = tmp / "pass.json"
        run_child(["pass", "--cache-dir", str(cache), "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--out", str(out), "--spans", str(spans_path)] + common,
                  deadline)
        res = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r["scaled_s"] for r in res["rounds"] if not r["traced"]]
    if trace:
        values, units = res["layers"], layer_units
    else:
        values = {"wall_s": statistics.median(plain),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = e2e_units
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    for msg in res["failures"] + res["problems"]:
        sys.stderr.write(f"{workload}: {msg}\n")
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, quick=quick, setup_s=setup,
                  setup_raw_s=setup_raw,
                  rounds=[{k: r[k] for k in ("wall_s", "scaled_s",
                                             "reference_s", "traced",
                                             "attempted", "failed")}
                          for r in res["rounds"]],
                  problems=res["problems"], failures=res["failures"],
                  environment=res["environment"])
    if trace:
        record["spans"] = str(spans_path.relative_to(ROOT))
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both, one run each)")
    ap.add_argument("--quick", action="store_true",
                    help="small truncations and a cheap catalog subset")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "prodexp" / "cli.py").is_file():
        sys.stderr.write(f"no prodexp sources under {ROOT / 'src'}\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    results = {}
    try:
        for w in workloads:
            for t in modes:
                res = run_workload(w, args.seed, args.seconds, t, args.quick)
                results[f"{w}/trace{t}"] = res
                if len(workloads) * len(modes) > 1:
                    for name, m in res["metrics"].items():
                        print(f"{w:16s} {name:40s} {m['value']:>14.6g} "
                              f"{m['unit']}")
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    last = (next(iter(results.values())) if len(results) == 1
            else {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{k}/{n}": m for k, r in results.items()
                              for n, m in r["metrics"].items()}})
    print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
