#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build-router --seed 1 --seconds 10 --trace 0

Builds the Go benchmark in perfbench/ (its own module, importing the
repository's packages from the checkout) into the build directory, then
runs it with the given arguments. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build; the Go build cache and
temporary files live there too, so nothing is written outside the
checkout. The benchmark's last line of standard output is its JSON
result; a traced run also writes its spans to
<build dir>/traces/<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("build-router", "build-kit", "route", "serve")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        # The go command keeps its telemetry counters under the user
        # config directory; keep that inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
    )

    binary = os.path.join(build_dir, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        cmd += ["-trace-out", os.path.join(build_dir, "traces",
                                           "%s-%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
