#!/usr/bin/env python3
"""Build and run the crane-sim benchmark.

    python3 perfbench/run.py --workload serve-mixed --seed 3085 --seconds 10 --trace 0

Builds the `perfbench` package (release profile, offline) from the sources
next to this directory, then runs one workload -- or every workload, each in
its own process, with `--workload all`. `--trace 0` runs the timed pass and
prints the end-to-end metrics; `--trace 1` runs the traced pass and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The exit code is
non-zero when the build fails, the program fails or a correctness check
fails. Build output goes to standard error; the build directory is
`$CARGO_TARGET_DIR`, or `.bench_build` at the repository root.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-mixed", "serve-churn", "rack-interactive"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", default="0xC0D", help="workload seed (decimal or 0x-hex)")
    parser.add_argument("--seconds", default="10", help="how long the timed pass measures")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    return parser.parse_args(argv)


def build(env):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the crane-sim sources (crates/) are missing", file=sys.stderr)
        return False
    print("perfbench: building (cargo build --release --offline)", file=sys.stderr)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        # Build output goes to stderr so the result stays the last stdout line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    args = parse_args(argv)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    name = "perfbench_traced" if args.trace == "1" else "perfbench"
    binary = os.path.join(os.path.abspath(target), "release", name)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        sys.stdout.flush()
        done = subprocess.run([binary, "--workload", workload, "--seed", args.seed,
                               "--seconds", args.seconds, "--trace", args.trace])
        if done.returncode != 0:
            print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
