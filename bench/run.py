"""lriga benchmark: time to solution, setup, peak memory and a traced
per-layer split on fixed workloads.

    python3 bench/run.py --workload annulus-p3-n32 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh child
interpreter (``child.py``) with one BLAS thread, one after another, until
the next one would overrun ``--seconds`` (at least three).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
(medians over the repetitions) with ``--trace 0``, its ``per_layer``
metrics with ``--trace 1``.  In a traced run the repetitions alternate
between untraced and traced, so the tracing overhead is measured in the
same run.  The line before it is a record of the environment and of every
repetition.  See README.md in this directory.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("annulus-p3-n32", "shell-p3-n20", "column-elast-p2-n16",
             "setup-sweep")
MIN_REPS = 3
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: A run is flagged as contaminated when the machine was busier than this
#: share of its CPUs just before it started, or when the hypervisor stole
#: more than this share of CPU time while it ran.
BUSY_SHARE = 0.25
STEAL_SHARE = 0.05

END_TO_END = ("time_to_solution_s", "setup_s", "solve_s", "peak_rss_mb",
              "iterations", "compression_pct")
#: Per-layer metrics copied from a repetition's result rather than its spans.
REP_LAYER_KEYS = {
    "tpcg.rank_x_max": "rank_x_max",
    "tpcg.rank_p_max": "rank_p_max",
    "tpcg.rank_r_max": "rank_r_max",
    "tpcg.reported_residual_rel": "reported_residual_rel",
    "tpcg.true_residual_rel": "true_residual_rel",
    "expsum.R_P": "R_P",
}


def cpu_times():
    """(busy, steal, total) jiffies summed over this process's CPUs."""
    cpus = {"cpu%d" % c for c in os.sched_getaffinity(0)}
    busy = steal = total = 0
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] in cpus:
                vals = [int(v) for v in fields[1:]]
                idle = vals[3] + vals[4]  # idle + iowait
                total += sum(vals[:8])
                steal += vals[7]
                busy += sum(vals[:8]) - idle - vals[7]
    return busy, steal, total


def busy_share(window_s=0.5):
    b0, _, t0 = cpu_times()
    time.sleep(window_s)
    b1, _, t1 = cpu_times()
    return (b1 - b0) / max(t1 - t0, 1)


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    return env


def run_child(workload, seed, traced, env):
    """One repetition in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), "1" if traced else "0"]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "timed out after %d s"
                % CHILD_TIMEOUT_S, "wall_s": time.perf_counter() - t}
    if proc.returncode != 0:
        return {"traced": traced, "error": proc.stderr[-2000:],
                "wall_s": time.perf_counter() - t}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep.update(traced=traced, wall_s=time.perf_counter() - t)
    return rep


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end_metrics(plain):
    return {name: median_of(plain, name) for name in END_TO_END}


def per_layer_metrics(plain, traced):
    """Medians over traced repetitions, plus the tracing overhead.

    Returns (metrics, failure messages).  Counts must repeat exactly from
    one traced repetition to the next.
    """
    out = {}
    failures = []
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if isinstance(values[0], int) and len(set(values)) > 1:
            failures.append("count %s differs between repetitions: %s"
                            % (name, values))
        out[name] = statistics.median(values)
    for name, key in REP_LAYER_KEYS.items():
        out[name] = median_of(traced, key)
    for k in range(3):
        out["assembly.operator_rank_%d" % (k + 1)] = statistics.median(
            r["operator_rank"][k] for r in traced)
    out["startup.import_s"] = median_of(plain + traced, "import_s")
    out["trace.solve_s"] = median_of(traced, "solve_s")
    out["trace.overhead_s"] = out["trace.solve_s"] - median_of(plain, "solve_s")
    return out, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run makes it kill and reap the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "lriga", "__init__.py")):
        print("lriga sources not found under %s" % SRC, file=sys.stderr)
        return 2
    e2e_units, layer_units = load_spec()
    compileall.compile_dir(os.path.join(SRC, "lriga"), quiet=1)

    env = child_env()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
        "cpu_busy_before": busy_share(),
    }
    _, steal0, total0 = cpu_times()

    reps = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_child(args.workload, args.seed, traced, env))
        elapsed = time.perf_counter() - t_start
        if (len(reps) >= MIN_REPS
                and elapsed + elapsed / len(reps) > args.seconds):
            break

    _, steal1, total1 = cpu_times()
    record["loadavg_after"] = os.getloadavg()
    record["steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    record["contaminated"] = (record["cpu_busy_before"] > BUSY_SHARE
                              or record["steal_share"] > STEAL_SHARE)
    record["reps"] = reps

    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (args.trace and not traced):
        print(json.dumps({"record": record}))
        print("no successful repetition", file=sys.stderr)
        return 1

    attempted = sum(r.get("attempted", 1) for r in ok) + len(reps) - len(ok)
    failed = sum(r["failed"] for r in ok) + len(reps) - len(ok)
    if args.trace:
        values, record["trace_failures"] = per_layer_metrics(plain, traced)
        units = layer_units
        if record["trace_failures"]:
            failed = min(attempted, failed + 1)
    else:
        values, units = end_to_end_metrics(plain), e2e_units
    print(json.dumps({"record": record}))
    if set(values) != set(units):
        print("metrics %s do not match BENCHMARK.json %s"
              % (sorted(values), sorted(units)), file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
