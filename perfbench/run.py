#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 20 --trace 0

The binary, the Go build cache and the benchmark's scratch files all go
under .bench_build/ in the current directory, so nothing is written
outside the checkout. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys


def main():
    build = os.path.abspath(".bench_build")
    src = os.path.dirname(os.path.abspath(__file__))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(exe, [exe, "-workdir", build] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
