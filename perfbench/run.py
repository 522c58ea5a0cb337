"""End-to-end benchmark of the ``repro`` commands users run.

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 25 --trace 0

Each sample is one fresh ``python3 perfbench/workload.py`` process (jobs=1,
BLAS threads pinned to 1). With ``--trace 0`` samples repeat until
``--seconds`` is used up and the end-to-end metrics of ``BENCHMARK.json``
are reported as medians. With ``--trace 1`` one untraced and one traced
process run, and the per-layer metrics are reported. Every simulated
counter is checked; the last line of standard output is the JSON result,
and the exit code is non-zero when any cell failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workload.py")

#: fewest untraced samples a run reports a median over.
MIN_SAMPLES = 3
#: the whole run ends within this many seconds; a sample still running
#: then is killed and counted as failed.
RUN_TIMEOUT_S = 170.0
#: BLAS/OpenMP thread pins applied to every sample process.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # bytecode caches go under the benchmark's ignored output directory
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, "out", "pycache")
    return env


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def sample(workload: str, seed: int, size: str, traced: bool, env: dict,
           deadline: float) -> dict:
    """Run one fresh workload process; its JSON result plus wall time."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size] + (["--trace"] if traced else [])
    t0 = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**env, "PERFBENCH_T0": repr(t0)},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"error": f"killed at the {RUN_TIMEOUT_S} s run limit", "attempted": 1,
                "failed": 1, "failures": {}}
    wall = now() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}", "attempted": 1,
                "failed": 1, "failures": {}}
    result["wall_s"] = wall
    result["exit_code"] = proc.returncode
    if proc.returncode and not result.get("failed"):
        result["error"] = result.get("error") or f"exit {proc.returncode}"
        result["failed"] = max(1, result.get("attempted", 1))
    return result


def summarize(samples: list[dict]) -> dict:
    """The run's end-to-end metrics from its untraced samples.

    Times and memory are medians over the samples; throughput is every
    replayed access over every second of simulation phase in the run.
    """
    def median(values):
        return statistics.median(list(values))

    return {
        "setup_s": median(s["t_first_run"] - s["t0"] for s in samples),
        "wall_s": median(s["wall_s"] for s in samples),
        "kacc_per_s": sum(s["replayed"] for s in samples)
        / sum(s["t_sim_end"] - s["t_first_run"] for s in samples) / 1e3,
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
    }


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest percentile (of 50, 90, 99, 99.9) with >= 10 samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, ordered[min(n - 1, int(p / 100 * n))])
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full",
                        help="workload shape (full, or tiny for the tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    # compile bytecode once, outside any timed sample
    start = now()
    deadline = start + RUN_TIMEOUT_S
    subprocess.run([sys.executable, "-c", "import repro, repro.bench, repro.check, "
                    "repro.tenancy"], cwd=ROOT, env=env, capture_output=True,
                   timeout=RUN_TIMEOUT_S)

    start = now()
    if args.trace:
        plain = sample(args.workload, args.seed, args.size, False, env, deadline)
        traced = sample(args.workload, args.seed, args.size, True, env, deadline)
        runs = [plain, traced]
        values = dict(traced.get("layers", {}))
        if "t_end" in plain and "t_end" in traced:
            values["trace.overhead_x"] = (
                (traced["t_end"] - traced["t0"]) / (plain["t_end"] - plain["t0"])
            )
        reconciled = traced.get("reconciled", False)
    else:
        runs = []
        while True:
            runs.append(sample(args.workload, args.seed, args.size, False, env,
                               deadline))
            walls = [r["wall_s"] for r in runs if "wall_s" in r]
            typical = statistics.median(walls) if walls else 0.0
            if now() >= deadline or (
                len(runs) >= MIN_SAMPLES and now() - start + typical > args.seconds
            ):
                break
        good = [r for r in runs if not r.get("error")]
        values = summarize(good) if good else {}
        reconciled = True
    elapsed = now() - start

    attempted = sum(r.get("attempted", 1) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    errors = [r["error"] for r in runs if r.get("error")]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = failed == 0 and not errors and not missing and reconciled
    first = next((r for r in runs if "versions" in r), {})

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "samples": len(runs),
        "elapsed_s": round(elapsed, 3),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": first.get("versions", {}).get("python"),
        "numpy": first.get("versions", {}).get("numpy"),
        "blas_env": THREAD_ENV,
        "jobs": 1,
        "commit": git_commit(),
        "engine": first.get("engine"),
        "expected_counters": "committed" if first.get("expected_seed")
        else "none for this seed: invariant checks only",
        "model": "unvalidated against hardware: the repo holds no hardware "
                 "measurements, so no error figure is given",
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in provenance.items()
                     if k not in ("workload", "seed")))
    for r in runs:
        for cell, why in sorted(r.get("failures", {}).items()):
            print(f"  FAILED {cell}: {'; '.join(why)}")
        if r.get("error"):
            print(f"  ERROR {r['error'].strip().splitlines()[-1]}")
    if args.trace:
        for name, (got, want) in sorted(traced.get("reconcile", {}).items()):
            print(f"  reconcile {name}: spans {got} vs simulator {want}"
                  + ("" if got == want else "  MISMATCH"))
        for cell, engines in traced.get("cell_engines", {}).items():
            print(f"  engine {cell}: {','.join(map(str, engines))}")
    else:
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        tail = tail_percentile(walls)
        print(f"  wall_s samples n={len(walls)}: "
              + (f"p{tail[0]} = {tail[1]:.4f} s" if tail
                 else "no percentile has >= 10 samples beyond it; median only"))
    print(f"  fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.4g} (ratio)")
    for m in wanted:
        v = values.get(m["name"])
        print(f"  {m['name']:32s} {'missing' if v is None else f'{v:.6g}':>14s} {m['unit']}")

    details = {"provenance": provenance, "values": values, "runs": runs}
    out = os.path.join(HERE, "out",
                       f"result-{args.workload}-{args.seed}-{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
