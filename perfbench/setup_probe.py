"""One set-up of the benchmark in a fresh interpreter.

    python3 perfbench/setup_probe.py SEED SIZES

Imports the package and builds every phase's seeded inputs, then prints
``ready``.  run.py times process start to that line to get ``setup_s``.
"""

from __future__ import annotations

import sys

import workloads


def main() -> int:
    seed, size_name = int(sys.argv[1]), sys.argv[2]
    workloads.build_inputs(seed, workloads.SIZES[size_name])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
