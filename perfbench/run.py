#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload library --seed 1 --seconds 10 --trace 0

The Go build cache, module path and the binary live in .bench_build/
under the checkout, so the benchmark reads and writes nothing outside
it. Every argument is passed through to the benchmark binary, which
replaces this process once built.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    if not os.path.isfile(os.path.join(repo, "go.mod")):
        sys.stderr.write("perfbench: %s is not inside a checkout of the repository "
                         "(no go.mod in %s)\n" % (here, repo))
        return 2
    out = os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    except OSError as err:
        sys.stderr.write("perfbench: cannot run the go toolchain: %s\n" % err)
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode if build.returncode > 0 else 1
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
