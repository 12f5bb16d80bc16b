#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to standard error; standard output carries the benchmark's
provenance line and, last, its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def tool_output(cmd, env=None):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True,
                              env=env).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Look for a repository at the root of the tree only, never above it.
    root = os.getcwd()
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    env["PERFBENCH_COMMIT"] = tool_output(["git", "-C", root, "rev-parse", "HEAD"], git_env)
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
