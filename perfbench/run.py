#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload src2_2-burst --seed 101 --seconds 30 --trace 0

The harness is a Go module of its own (perfbench/go.mod) that replaces
the simulator module with the checkout it sits in. Every file the build
and the run touch stays under .bench_build/ in the checkout: the Go build
cache, temporary files, the binary, and the traced run's spans and
per-layer tables. The last line of standard output is the JSON result;
build output and diagnostics go to standard error.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840  # a cold Go build cache compiles the standard library
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    for key in ("GOCACHE", "GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def run(cmd, cwd, env, timeout, stdout=None):
    """Runs cmd in its own process group, killing the group on timeout."""
    try:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    except OSError as err:
        print(f"perfbench: cannot start {cmd[0]}: {err}", file=sys.stderr)
        return 1
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 1


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no simulator module (go.mod) beside perfbench/", file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    code = run(["go", "build", "-o", binary, "."], HERE, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    return run([binary] + sys.argv[1:], ROOT, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
