"""Round benchmark for betadpca.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload wide_fixed_tcp --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout.  Set-up draws a pool of
inputs from the seed and runs one untimed warm-up op; it is repeated
SETUP_REPEATS times and the median is reported.  Then ops run closed-loop, one
caller, each on the next pool entry, for --seconds (and at least the
workload's minimum op count).  Every result is checked against the dense
oracle in ``oracle.py`` after the timed loop, so checking never overlaps a
timed interval or the peak-memory reading.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 ops alternate untraced and traced, and it carries the per-layer
metrics of the traced ops.  The lines before it record the environment and a
readable report.
"""

import os
import sys
import time

START = time.perf_counter()

# BLAS and OpenMP pools are sized when numpy loads; pin them first.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# A run stops at --seconds once it has its minimum op count, and at
# MAX_STRETCH * --seconds regardless.
MAX_STRETCH = 3.0


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def measure(wl, seed: int, seconds: float, trace: bool):
    import numpy as np

    import betadpca
    import probe

    import_s = time.perf_counter() - START
    counters = probe.Counters(betadpca.cluster)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = wl.make_pool(seed)
            counters.sample_threads_in_next_frame()
            wl.run(pool[-1])  # warm-up; the timed loop starts at pool[0]
            setups.append(time.perf_counter() - t0)

        tracer = probe.Tracer(betadpca) if trace else None
        layers = probe.LayerStats()
        times, traced_times = [], []
        outcomes = [[] for _ in pool]
        errors = []
        attempted = 0
        frames0, bytes0, connects0 = counters.snapshot()
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            if elapsed >= MAX_STRETCH * seconds or (elapsed >= seconds and attempted >= wl.min_ops):
                break
            traced = tracer is not None and attempted % 2 == 1
            entry = attempted % len(pool)
            before = counters.snapshot()
            counters.sample_threads_in_next_frame()
            if traced:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = wl.run(pool[entry])
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                result = None
                errors.append(f"op {attempted}: {exc!r}")
            dt = time.perf_counter() - t0
            spans = tracer.end_op() if traced else None
            attempted += 1
            if not wl.has_frames:
                counters.sample_threads()
            if result is None:
                continue
            outcomes[entry].append(wl.digest(result))
            del result
            if traced:
                frames, nbytes, connects = (a - b for a, b in zip(counters.snapshot(), before))
                layers.add(spans, frames, nbytes, connects)
                traced_times.append(dt)
            else:
                times.append(dt)
        frames1, bytes1, connects1 = counters.snapshot()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        counters.close()

    mismatches, unresolved, rhos = [], 0, []
    for entry, outs in zip(pool, outcomes):
        if outs:
            check = wl.check(entry, outs)
            mismatches += check.mismatches
            unresolved += check.unresolved
            rhos.append(check.rho_r)
    failed = len(errors) + len(mismatches)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": (errors + mismatches)[:5],
        "unresolved": unresolved,
        "import_s": import_s,
        "setups_s": setups,
        "setup_s": import_s + statistics.median(setups),
        "times": times,
        "traced_times": traced_times,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb,
        "frames": frames1 - frames0,
        "wire_bytes": bytes1 - bytes0,
        "connects": connects1 - connects0,
        "max_threads": counters.threads.max_threads,
        "rho_r": float(np.mean(rhos)) if rhos else float("nan"),
        "pool_size": len(pool),
        "pool_covered": sum(bool(outs) for outs in outcomes),
    }


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "betadpca" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    env = environment(np)
    print(json.dumps({"env": env}), flush=True)
    res = measure(wl, args.seed, args.seconds, bool(args.trace))
    if res["max_threads"] > env["nproc"]:
        print(f"error: the process ran {res['max_threads']} threads on {env['nproc']} CPUs",
              file=sys.stderr)
        return 1

    times = res["times"] or [float("nan")]
    per_op = max(res["attempted"], 1)
    op_name = "round" if wl.has_frames else "replicate"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": res["attempted"], "timed_ops": len(res["times"]),
        "pool_size": res["pool_size"], "pool_covered": res["pool_covered"],
        f"{op_name}_s": statistics.median(times),
        "fail_frac": res["failed"] / per_op,
        "oracle_unresolved": res["unresolved"],
        "rho_r": res["rho_r"],
        "setups_s": res["setups_s"], "import_s": res["import_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "max_threads": res["max_threads"],
    }
    if len(times) >= 100:
        report[f"{op_name}_s_p90"] = float(np.percentile(times, 90))
    if wl.has_frames:
        report.update(wire_bytes=res["wire_bytes"] / per_op, frames=res["frames"] / per_op,
                      connect_attempts=res["connects"], frames_sent=res["frames"])
    if res["problems"]:
        report["problems"] = res["problems"]
    print(json.dumps({"report": report}), flush=True)

    if args.trace:
        values = res["layers"].metrics()
        traced = statistics.median(res["traced_times"]) if res["traced_times"] else float("nan")
        values["trace.op_s"] = traced
        values["trace.overhead_s"] = traced - statistics.median(times)
    else:
        values = {
            "op_s": statistics.median(times),
            "setup_s": res["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / per_op,
            "rho_r": res["rho_r"],
        }
    # BENCHMARK.json names the metrics and their units
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
