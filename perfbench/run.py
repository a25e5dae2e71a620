#!/usr/bin/env python3
"""Builds and runs the FlashPS serving benchmark.

    python3 perfbench/run.py --workload edit24_dense --seed 7 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The first call configures and builds
perfbench/ (the benchmark binary plus the repository's src/ libraries) into
.bench_build/; later calls rebuild incrementally. Each workload's serving
shape, rate and latency limit come from perfbench/workloads.json. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; --trace 1 reports the per-layer metrics instead of the
end-to-end ones. A per-run record (host stamp, traffic shares, metrics and
the traced run's span ledger) is written under .bench_out/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        ):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def source_id():
    """Git revision when available, plus a digest of the benchmarked sources
    (the benchmark also runs from checkouts that are not git repositories)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src:" + digest.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
            ident = "git:" + sha[:12] + " " + ident
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def flags_for(spec):
    out = []
    for key, value in spec["flags"].items():
        if value is True:
            out.append("--" + key)
        else:
            out.append("--%s=%s" % (key, value))
    return out


def run_one(name, spec, seed, seconds, trace, ident):
    cmd = [BINARY, "--workload=" + name, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace,
           "--source-id=" + ident] + flags_for(spec)
    env = dict(os.environ, PERFBENCH_OUT=OUT)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (name, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("workload %s printed no result (exit %d)" % (name, proc.returncode))
    return proc.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            fail("unknown workload %r (known: %s)" % (name, ", ".join(workloads)))

    build()
    ident = source_id()
    code = 0
    results = {}
    for name in names:
        spec = workloads[name]
        seed = args.seed if args.seed is not None else spec["seed"]
        rc, lines, result = run_one(name, spec, seed, args.seconds, args.trace, ident)
        code = code or rc
        print("\n".join(lines))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(code)


if __name__ == "__main__":
    main()
