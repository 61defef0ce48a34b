#!/usr/bin/env python3
"""Shows that the benchmark's output checks are live.

    python3 perfbench/check.py

Builds the benchmark (as run.py does) and runs `perfbench_driver
selftest`: the SHA-256 known-answer vectors, the regex reference on a
fixed string, the benchmark's own miner (every check passes), and the
miner as src/workloads writes it today (every reported hash fails the
SHA-256 check). Exits 0 only when all four behave so.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    run.build()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(run.BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    sys.exit(subprocess.call([run.DRIVER, "selftest"], cwd=run.BUILD,
                             env=env))


if __name__ == "__main__":
    main()
