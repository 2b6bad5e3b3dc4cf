#!/usr/bin/env python3
"""The repository benchmark.

Run one workload for one seed (builds the generator first, from source):

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}); a per-run result file
with host facts lands in perfbench/results/ (or --out DIR).

Compare two sets of result files (say, runs over seeds 1-10 with
--out DIR_A and over 11-20 with --out DIR_B), workload by workload:
quartiles and spreads side by side, medians against the bounds in
BENCHMARK.json:

    python3 perfbench/run.py compare DIR_A DIR_B
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("serve_mix", "scale_300", "soak_day")
# Workload figures that are an end-to-end metric under another name.
TWINS = {
    "requests_per_s": "throughput_per_s",
    "queries_per_s": "throughput_per_s",
    "sim_hours_per_s": "throughput_per_s",
    "request_p50_ms": "latency_p50_ms",
    "request_p99_ms": "latency_tail_ms",
}

# Whole-command limits: the first build in a fresh checkout may take
# long; after it, a run must finish well inside three minutes.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the generator from source; False when the tree cannot."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        log("perfbench: no dune-project at the checkout root; nothing to build")
        return False
    try:
        proc = subprocess.run(
            # No shared cache: the build reads and writes only the checkout.
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    return proc.returncode == 0 and os.path.isfile(EXE)


def source_digest():
    """A digest of the library and benchmark sources."""
    h = hashlib.sha256()
    for d in ("lib", "perfbench"):
        paths = glob.glob(os.path.join(ROOT, d, "**", "*.ml*"), recursive=True)
        paths += glob.glob(os.path.join(ROOT, d, "**", "dune"), recursive=True)
        for path in sorted(paths):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def source_id():
    """The source revision: `git:<sha>` (with `+dirty` when lib/ or
    perfbench/ differ from it) where there is a git commit, and always
    the digest of the sources actually built, `src:<digest>`."""
    src = "src:" + source_digest()
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain", "--", "lib", "perfbench"],
                                cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return src
    if head.returncode != 0 or not head.stdout.strip() or status.returncode != 0:
        return src
    dirty = "+dirty" if status.stdout.strip() else ""
    return f"git:{head.stdout.strip()}{dirty} {src}"


def run_once(workload, seed, seconds, trace, out, commit):
    """One fresh generator process; returns (exit code, result dict or None)."""
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
        "--trace", str(trace), "--out", os.path.abspath(out), "--commit", commit,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(q):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = q
    return (q3 - q1) / abs(med) if med else float("inf")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def load_results(directory):
    """Untraced result files of a directory, grouped by workload."""
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                r = json.load(f)
            except ValueError:
                continue
        if r.get("schema") != "perfbench-result/1" or r.get("trace"):
            continue
        by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def values_of(results, section, name):
    return [r[section][name]["value"] for r in results
            if name in r.get(section, {}) and r[section][name]["value"] is not None]


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def cmd_compare(args):
    spec = load_spec()
    a, b = load_results(args.a), load_results(args.b)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        ra, rb = a.get(w, []), b.get(w, [])
        print(f"{w}: {len(ra)} runs in A, {len(rb)} runs in B")
        if not ra or not rb:
            continue
        print(f"  {'metric':22s} {'A q1':>11s} {'A median':>11s} {'A q3':>11s} {'A spread':>8s}   "
              f"{'B q1':>11s} {'B median':>11s} {'B q3':>11s} {'B spread':>8s}   verdict")
        for section in ("end_to_end", "workload_metrics"):
            names = sorted({n for r in ra + rb for n in r.get(section, {})},
                           key=lambda n: (n not in bounds, n))
            for name in names:
                va, vb = values_of(ra, section, name), values_of(rb, section, name)
                if not va or not vb:
                    continue
                qa, qb = quartiles(va), quartiles(vb)
                m = bounds.get(TWINS.get(name, name))
                verdict = ""
                if m is not None:
                    w_by = worse_by(qa[1], qb[1], m["better"])
                    within = w_by <= m["bound"]
                    ok = ok and within
                    verdict = (f"{'within' if within else 'OUTSIDE'} bound {m['bound']} "
                               f"({'worse' if w_by > 0 else 'better'} by {abs(w_by):.3f})")
                print(f"  {name:22s} {qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g} {spread(qa):8.3f}   "
                      f"{qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} {spread(qb):8.3f}   {verdict}")
    return 0 if ok else 1


def cmd_run(args):
    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
        return 2
    if args.trace not in (0, 1):
        log("perfbench: --trace takes 0 or 1")
        return 2
    if not build():
        return 2
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace, args.out,
                            source_id())
    if result is None:
        return code or 1
    return code


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=os.path.join(HERE, "results"))
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
