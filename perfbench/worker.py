"""One benchmark session in a fresh interpreter, so every lru_cache starts empty.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
                                [--trace] [--setup-only]

Prints `ready` once wbcat is imported and the workload's inputs are built,
then runs every job of the workload, then its checks, and prints one JSON
line with the timings and outcomes. run.py starts this process and reads
both lines.

An untraced session samples the host's speed all through its jobs: it runs
hostref.probe() before the first job, after the last one and every
PROBE_EVERY_S seconds from a timer signal in between, or, for cli_mix,
whose calls run in child processes, between the calls. The probe runs in
this process because its speed follows the session's: a separate probe
process tracked it worse. Every reported time leaves the probes out; the
samples go into the report. A set-up-only session takes SETUP_PROBES
samples once set-up is done.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import time
import warnings

warnings.simplefilter("ignore")  # basis-hypothesis warnings are expected

import hostref  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402  (imports wbcat: part of set-up)

PROBE_EVERY_S = 0.25
SETUP_PROBES = 6


class Speedometer:
    """Host-speed samples taken inside the timed region, and a clock that
    leaves out the time they took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *_):
        if self.busy:  # the timer fired inside a sample
            return
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append(hostref.probe())
        self.spent += time.perf_counter() - t0
        self.busy = False

    def clock(self):
        return time.perf_counter() - self.spent

    def start_timer(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.size)
    print(f"ready {time.monotonic()!r}", flush=True)
    speed = Speedometer()
    if args.setup_only:  # the host's speed right after set-up
        for _ in range(SETUP_PROBES):
            speed.sample()
        out = {"probes": speed.samples}
    else:
        out = session(args, wl, speed)
    print(json.dumps(out), flush=True)


def session(args, wl, speed):
    """Run the jobs, then the checks; return the report."""
    is_cli = isinstance(wl, workloads.CliMix)
    if args.trace and is_cli:
        wl.traced = True  # each call traces itself (cli_call.py)
    elif args.trace:
        tracer = layertrace.Tracer().install()

    rng = random.Random(args.seed)
    jobs, failures = [], []
    wl.clock = speed.clock
    sampling = not args.trace
    if sampling:
        speed.sample()
        if not is_cli:
            speed.start_timer()
    t_start = speed.clock()
    for name, fn in wl.jobs(rng):
        t0 = speed.clock()
        try:
            fn()
        except Exception as exc:  # a failed job is counted, never fatal
            failures.append(f"{name}: {type(exc).__name__}: {exc}"[:300])
        jobs.append((name, speed.clock() - t0))
        if sampling and is_cli:
            speed.sample()
    wall = speed.clock() - t_start
    speed.stop_timer()
    if sampling and not is_cli:
        speed.sample()
    # peak RSS and the trace cover set-up and jobs, not the checks below;
    # cli_mix does its work in child processes
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
    if args.trace:
        snap, absent = merge_cli_traces(wl) if is_cli else (tracer.snapshot(), tracer.absent)

    checks = []
    for name, fn in wl.checks(rng):
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            name += f": {type(exc).__name__}: {exc}"
        if not ok:
            failures.append(f"check {name}"[:300])
        checks.append((name, ok))

    out = {
        "wall_s": wall,
        "jobs": jobs,
        "calls": [t for _, t in jobs] if wl.calls is None else wl.calls,
        "probes": speed.samples,
        "checks": checks,
        "failures": failures,
        "rss_kib": rss.ru_maxrss,
    }
    if args.trace:
        out["trace"] = snap
        out["missing"] = layertrace.missing_calls(snap, absent, args.workload)
    return out


def merge_cli_traces(wl):
    """Add up the per-call trace snapshots of one pass of the CLI mix."""
    total, imports, absent = {}, [], set()
    for rec in wl.trace_records:
        imports.append(rec.pop("import_s"))
        absent.update(rec.pop("absent"))
        for key, value in rec.items():
            total[key] = total.get(key, 0) + value
    imports.sort()
    total["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    total["cli.emit_bytes"] = wl.emit_bytes
    return total, sorted(absent)


if __name__ == "__main__":
    main()
