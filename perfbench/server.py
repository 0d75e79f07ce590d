"""Run the nlhb ``AuthService`` for the benchmark's handshake phase.

    python3 perfbench/server.py --keystore KEYS --log LOG --seed N [--trace SPANS]

Prints ``listening HOST PORT`` once the socket accepts connections, serves
until a line (or end of file) arrives on standard input, then shuts down.
With ``--trace`` it wraps the server-side L4 functions, writes their spans
to SPANS and prints one JSON line of per-layer figures before exiting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from nlhb import authsvc  # noqa: E402

from harness import Tracer  # noqa: E402
from layers import install_server, server_summary  # noqa: E402
from workloads import PACKAGE_MODULES  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keystore", required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    tracer = stats = None
    if args.trace:
        tracer = Tracer()
        stats = install_server(tracer, PACKAGE_MODULES)
    service = authsvc.serve(("127.0.0.1", 0), args.keystore, seed=args.seed, log_path=args.log)
    try:
        print("listening %s %d" % service.address, flush=True)
        sys.stdin.readline()
    finally:
        service.shutdown()
    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace)
        print(json.dumps(server_summary(tracer, stats)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
