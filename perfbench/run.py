#!/usr/bin/env python3
"""Build gcond and the benchmark from source, then run one benchmark pass.

Usage, from the root of a gcon checkout:

    python3 perfbench/run.py --workload point|bulk|update|train \
        --seed N --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the checkout).
Everything the benchmark prints goes to stdout; its last line is the JSON
result. Build output goes to stderr. Exits non-zero, without a result, when
the checkout holds no gcon workspace to build.
"""

import os
import signal
import subprocess
import sys


def build(args, cwd):
    """Runs one offline release build; build chatter goes to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", *args],
        cwd=cwd,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return done.returncode == 0


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("src", "bin", "gcond.rs"), "crates"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: no gcon workspace here ({needed} is missing)", file=sys.stderr)
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not build(["--bin", "gcond"], root) or not build(["--manifest-path", manifest], root):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--gcond", os.path.join(release, "gcond")]
    # Its own process group, so a stop signal takes the gcond children too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
