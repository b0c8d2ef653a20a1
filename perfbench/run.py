"""wbcat benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). Workloads: struct3, faithful3, relcheck3, cli_mix (see README.md
in this directory).

The run is a closed loop of sessions, one at a time. A session is a fresh
interpreter (perfbench/worker.py) that builds the workload's inputs, runs
all of its jobs, checks every answer and reports. Sessions repeat while
another one fits in S seconds; at least one always runs.

--trace 0 reports the end-to-end metrics; eight set-up-only sessions come
first, so that set-up time has several samples. Every untraced session
samples hostref.probe() (worker.py: right after set-up in a set-up-only
session, all through the jobs in the others), and its times are scaled by
hostref.NOMINAL_S / the mean sample, so that the host's speed drift
cancels; the unscaled medians go to the run context. --trace 1 runs one
plain session and then traced ones, and reports the per-layer metrics of the
traced sessions (layertrace.py) with the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The line
before it is the run context (commit, Python, nproc, WB_THREADS, host probe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("struct3", "faithful3", "relcheck3", "cli_mix")
SETUP_SESSIONS = 8
RUN_LIMIT_S = 170  # a run never takes longer than this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}


def per_layer_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for _, _, group in layertrace.SPANS:
        units[group + ".calls"] = "count"
        units[group + ".self_s"] = "s"
        units[group + ".total_s"] = "s"
        units[group + ".errors"] = "count"
    for _, _, group in layertrace.COUNTS:
        units[group + ".calls"] = "count"
    for name, _ in layertrace.EXTRA.values():
        units[name] = "count"
    for name in layertrace.YIELDS.values():
        units[name] = "count"
    units["cyclotomic.rounds"] = "count"
    units["cli.import_s"] = "s"
    units["cli.emit_bytes"] = "B"
    for mod, name in layertrace.CACHES:
        for field in ("hits", "misses", "currsize"):
            units[f"{mod}.{name}.{field}"] = "count"
        units[f"{mod}.{name}.hit_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


class RunError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("WB_THREADS", None)  # both commits run the single-threaded path
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def session(args, deadline, trace=False, setup_only=False):
    """Run one worker; return its report with the measured set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"session of {args.workload} exceeded the run limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RunError(f"worker failed (exit {proc.returncode}):\n{err[-2000:]}")
    report = json.loads(lines[1]) if len(lines) > 1 else {}
    # the worker stamps the system-wide monotonic clock when set-up is done
    report["setup_s"] = float(lines[0].split()[1]) - t0
    report["session_s"] = time.monotonic() - t0
    return report


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_ref():
    """Seconds hostref.py's probes take in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "hostref.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def context(args):
    src = ROOT / "src" / "wbcat"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": sha,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "WB_THREADS": os.environ.get("WB_THREADS"),
        "host_probe_s": host_ref(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def summary(setup_only, plain, speeds):
    """End-to-end values with each session's times multiplied by its speed
    factor; `speeds` lists the set-up-only sessions first."""
    setups = [r["setup_s"] * k for r, k in zip(setup_only + plain, speeds)]
    speeds = speeds[len(setup_only):]
    latencies = [t * k for r, k in zip(plain, speeds) for t in r["calls"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] * k for r, k in zip(plain, speeds)),
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in plain) / 1024,
        "call_p50_ms": 1000 * percentile(latencies, 50),
        "call_p90_ms": 1000 * percentile(latencies, 90),
    }


def end_to_end(setup_only, plain):
    """The values as measured, the speed factors, and the metrics: times
    scaled to the nominal host speed by the mean of the session's probes."""
    speeds = [hostref.NOMINAL_S / statistics.fmean(r["probes"]) for r in setup_only + plain]
    raw = summary(setup_only, plain, [1.0] * len(speeds))
    scaled = summary(setup_only, plain, speeds)
    return raw, speeds, {name: metric(v, END_TO_END[name]) for name, v in scaled.items()}


def per_layer(plain, traced):
    units = per_layer_units()
    values = {name: statistics.median(r["trace"].get(name, 0) for r in traced)
              for name in units}
    for mod, name in layertrace.CACHES:
        key = f"{mod}.{name}"
        base = values[key + ".hits"] + values[key + ".misses"]
        values[key + ".hit_ratio"] = values[key + ".hits"] / base if base else 0.0
    q = "cyclotomic._quadratic_replacement"
    values["cyclotomic.rounds"] = values[q + ".hits"] + values[q + ".misses"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    top = statistics.median(r["trace"].get("top_s", 0.0) for r in traced)
    values["trace.coverage"] = top / traced_wall if traced_wall else 0.0
    return {name: metric(values[name], units[name]) for name in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few-second version for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "wbcat" / "__init__.py").is_file():
        print(f"error: no wbcat source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_run = time.monotonic()
    deadline = t_run + RUN_LIMIT_S
    ctx = context(args)
    if args.workload == "cli_mix":
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        ctx["known_defect"] = workloads.known_defect_probe()

    t_measure = time.monotonic()
    setup_only = [session(args, deadline, setup_only=True)
                  for _ in range(0 if args.trace else SETUP_SESSIONS)]
    plain = [session(args, deadline)]
    traced = [session(args, deadline, trace=True)] if args.trace else []
    repeated = traced if args.trace else plain
    while (time.monotonic() - t_measure
           + statistics.median(r["session_s"] for r in repeated)) <= args.seconds:
        repeated.append(session(args, deadline, trace=bool(args.trace)))

    done = plain + traced
    failures = [f for r in done for f in r["failures"]]
    attempted = sum(len(r["jobs"]) + len(r["checks"]) for r in done)
    for f in failures:
        print("FAILED", f, file=sys.stderr)
    if args.trace:
        missing = sorted({g for r in traced for g in r["missing"]})
        if missing:
            raise RunError(
                f"no calls recorded on {args.workload} for {', '.join(missing)}: "
                "a module still calls an unwrapped alias (see layertrace.py)")
        metrics = per_layer(plain, traced)
    else:
        ctx["raw"], ctx["host_speed"], metrics = end_to_end(setup_only, plain)
    ctx["sessions"] = {"plain": len(plain), "traced": len(traced),
                       "setup_only": len(setup_only)}
    ctx["wall_s"] = {"plain": [r["wall_s"] for r in plain], "traced": [r["wall_s"] for r in traced]}
    ctx["probes"] = [len(r["probes"]) for r in plain]
    ctx["samples"] = sum(len(r["calls"]) for r in plain)  # latencies behind p50, p90
    ctx["run_s"] = time.monotonic() - t_run
    print(json.dumps({"context": ctx}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
