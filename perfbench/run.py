#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the benchmark crate
(perfbench/Cargo.toml) and the real `rsk-serve` binary in release mode
into $CARGO_TARGET_DIR (default: .bench_build), runs the workload, and
prints two lines on stdout: `provenance {...}` (commit, toolchain, CPU
placement, steal time, CPU seconds, counts, notes) and, last, the result
object with exactly the keys correct, attempted, failed and metrics.

It exits non-zero without a result line when the build fails (for
example outside a full checkout), when an operation fails, or when the
run overruns its time limit. The full record of each run, provenance
included, is also written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embed-seq", "embed-shared")
# A run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(tdir):
    """Build the harness and the server binary its traced runs probe;
    cargo's output goes to stderr so stdout stays the result channel."""
    env = dict(os.environ, CARGO_TARGET_DIR=tdir)
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "rsk-serve", "--bin", "rsk-serve"],
    )
    for cmd in steps:
        if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
            die("no Cargo workspace at the repository root: nothing to build")
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpu_times():
    """Aggregate /proc/stat CPU counters: (total, steal)."""
    fields = read("/proc/stat").splitlines()[0].split()[1:]
    vals = [int(x) for x in fields[:8]]
    return sum(vals), (vals[7] if len(vals) > 7 else 0)


def source_id():
    """The commit when this is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return {"commit": r.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
            if "/out/" not in os.path.join(d, f) + "/" and "/target/" not in d + "/")
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return {"commit": None, "source_sha256": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative", 2)

    tdir = target_dir()
    build(tdir)
    bench = os.path.join(tdir, "release", "perfbench")
    server = os.path.join(tdir, "release", "rsk-serve")
    out_dir = os.path.join(HERE, "out")

    nproc = len(os.sched_getaffinity(0))
    total0, steal0 = cpu_times()
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", server, "--out-dir", out_dir]
    # A session of its own, so an overrun can stop the harness together
    # with the server process a traced run starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{args.workload} overran {RUN_LIMIT_S} s")
    wall = time.monotonic() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    total1, steal1 = cpu_times()
    if proc.returncode != 0:
        die(f"{args.workload} failed (exit {proc.returncode})", 1)
    lines = stdout.strip().splitlines()
    if not lines:
        die(f"{args.workload} printed no result")
    result = json.loads(lines[-1])

    provenance = dict(source_id())
    provenance.update({
        "rustc": subprocess.run(["rustc", "--version"], capture_output=True,
                                text=True, cwd=ROOT).stdout.strip(),
        "nproc": nproc,
        "clocksource": read("/sys/devices/system/clocksource/clocksource0/current_clocksource",
                            "unknown"),
        # the placement perfbench drew from its affinity mask, and how
        # many of its pinning calls failed
        "placement": result.get("placement"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "wall_s": round(wall, 3),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "process_cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "counts": result.get("counts", {}),
        "notes": result.get("notes", []),
    })
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"provenance": provenance, "result": final}, f, indent=1)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
