#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench worker from source and runs one
workload in fresh worker processes.

    python3 perfbench/run.py --workload loaded --seed 1 --seconds 16 --trace 0

Run it from the repository root. With --trace 0 the last line of standard
output is a JSON object holding the end-to-end metrics (setup_s,
msgs_per_s, live_heap_mib); with --trace 1 it holds the per-layer metrics
of one traced worker. All timings are host CPU seconds of the worker
process; see perfbench/README.md for why, and for what each workload is.
A human-readable summary goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Worker processes per measured run. Each one sets up cold (fresh process,
# empty table cache) and gives one setup_s sample; --seconds is split
# across them. Worker w of seed s draws traffic stream (s-1)*n + w + 1, so
# one run averages n independent traffic draws and no two seeds share one.
WORKERS = {"loaded": 8, "scale32k": 3, "paper": 4}

# CPU seconds of one round on the reference machine (2-vCPU Xeon @ 2.1 GHz).
# --seconds buys a fixed number of rounds per worker from these, so every
# run measures the same work however fast the machine happens to be.
ROUND_S = {"loaded": 2.0, "scale32k": 1.0, "paper": 3.5}

# Setup samples per measured run: the workers above plus setup-only
# processes. loaded sets up in about 0.05 CPU s with +-15% process-to-
# process noise (page faults, GC pacing from an empty heap), so it takes
# many cheap samples.
SETUPS = {"loaded": 32, "scale32k": 3, "paper": 4}

# The seed whose simulated outputs are pinned below. Seed 7 is held out:
# no pinned value or tuning decision used it (README.md).
DEFAULT_SEED = 1
REL_TOL = 1e-9

# Outputs of traffic stream 1 (worker 0 of the default seed; for paper it
# is cmd/figures' default seed and Fig. 1's first rack). Delivered messages
# must equal the budget on every stream; these pin what the simulation
# computed.
PINNED = {
    "loaded": {"makespan_s": 0.00019195486328125005},
    "scale32k": {"makespan_s": 0.014538338035764728},
    "paper": {
        "fig1_gib_0": 2.384417636529776,
        "fig1_gib_1": 1.2501202707123034,
        "fig1_gib_2": 2.186205651399142,
        "makespan_s": 85.15302144783507,
        "score_MILC_0": 28.34462645601773,
        "score_MILC_1": 28.374351781522194,
        "score_MILC_2": 28.35292131375266,
        "score_allreduce_0": 506.5966742920819,
        "score_allreduce_1": 357.83897874563246,
        "score_allreduce_2": 1385.7983195739391,
        "score_alltoall_0": 336.26726399739505,
        "score_alltoall_1": 873.4999959309918,
        "score_alltoall_2": 514.1763015230175,
    },
}

# Per-layer metrics of a traced run, with their units (BENCHMARK.json
# lists the same names).
LAYERS = {
    "topo.build_s": "s",
    "route.build_s": "s",
    "route.alloc_mib": "MiB",
    "exp.cache_hits": "count",
    "exp.cache_misses": "count",
    "workloads.build_s": "s",
    "mpi.ops": "count",
    "sim.events": "count",
    "sim.dispatch_s": "s",
    "sim.ns_per_event": "ns",
    "flow.solves": "count",
    "flow.solve_s": "s",
    "flow.us_per_solve": "us",
    "flow.active_per_solve": "count",
    "flow.solve_share_pct": "%",
    "fabric.retries": "count",
    "fabric.giveups": "count",
    "telemetry.tax_pct": "%",
    "telemetry.detached_s": "s",
    "telemetry.finish_s": "s",
    "go.gc_cpu_s": "s",
    "go.run_alloc_mib": "MiB",
    "trace.overhead_pct": "%",
    "trace.base_s": "s",
    "trace.traced_s": "s",
}

# A measured run must finish within this many seconds after the build.
RUN_DEADLINE_S = 160


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Builds the worker into .bench_build, keeping every Go cache there."""
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    exe = os.path.join(out, "perfbench")
    try:
        res = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if res.returncode != 0:
        fail(f"build failed:\n{res.stdout}")
    return exe


def worker(exe, args, deadline):
    """Runs one worker process to completion and returns its report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before starting a worker")
    try:
        res = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} exceeded the deadline")
    if res.returncode != 0:
        fail(f"worker {' '.join(args)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"worker {' '.join(args)} printed no report")
    return json.loads(lines[-1])


def close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(reps, workload, seed):
    """Returns the list of failed output checks across every worker."""
    errors = []
    for i, r in enumerate(reps):
        errors += [f"worker {i}: {e}" for e in r["errors"]]
        if r["failed"] != 0:
            errors.append(f"worker {i}: {r['failed']} of {r['attempted']} messages failed")
    first = reps[0]["outputs"]
    if seed == DEFAULT_SEED:
        want = PINNED[workload]
        if set(first) != set(want):
            errors.append(f"outputs {sorted(first)} != pinned {sorted(want)}")
        for k, v in want.items():
            if k in first and not close(first[k], v):
                errors.append(f"{k} = {first[k]!r}, pinned {v!r}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 1:
        fail("--seed must be a positive integer")

    root = os.getcwd()
    exe = build(root)
    wall0 = time.monotonic()
    deadline = wall0 + RUN_DEADLINE_S
    n = WORKERS[a.workload]

    def args(w):
        return ["-workload", a.workload, "-seed", str((a.seed - 1) * n + w + 1)]

    setup_only = []
    if a.trace:
        reps = [worker(exe, args(0) + ["-mode", "trace"], deadline)]
        metrics = {k: {"value": reps[0]["layers"][k], "unit": u} for k, u in LAYERS.items()}
    else:
        rounds = max(1, round(a.seconds / n / ROUND_S[a.workload]))
        reps = [worker(exe, args(w) + ["-rounds", str(rounds)], deadline) for w in range(n)]
        setup_only = [worker(exe, args(w) + ["-mode", "setup"], deadline)
                      for w in range(n, SETUPS[a.workload])]
        setups = [r["setup_cpu_s"] for r in reps + setup_only]
        rates = [r["msgs"] / r["cpu_s"] for rep in reps for r in rep["rounds"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "msgs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "live_heap_mib": {"value": statistics.median(r["live_heap_bytes"] for r in reps) / (1 << 20),
                              "unit": "MiB"},
        }

    errors = check(reps, a.workload, a.seed)
    errors += [f"setup worker: {e}" for r in setup_only for e in r["errors"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = attempted if errors else sum(r["failed"] for r in reps)
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    total_rounds = sum(len(r["rounds"]) for r in reps)
    print(f"perfbench: {a.workload} seed {a.seed}: {len(reps)} workers, {total_rounds} rounds, "
          f"{time.monotonic() - wall0:.1f} s wall (informational)", file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k:24s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
