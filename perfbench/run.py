#!/usr/bin/env python3
"""Build the CARE benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload inject-cold --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files, the built binary and every file the
benchmark writes stay under .bench_build/ at the repository root. Build
output goes to stderr; the benchmark's own stdout ends with one JSON
result line. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "PERFBENCH_DIR": build,
    })
    binary = os.path.join(build, "perfbench")
    rc = subprocess.call(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                         stdout=sys.stderr)
    if rc != 0:
        sys.stderr.write("perfbench: build failed\n")
        return rc or 1
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
