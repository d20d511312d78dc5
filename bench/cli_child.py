"""Run one ``beliefbound`` CLI command under the benchmark's tracer.

Usage: python3 bench/cli_child.py <beliefbound cli arguments...>

Stdout carries the command's report unchanged and the exit code is the
command's.  The last stderr line is ``BENCH_TRACE <json>``: the import CPU time of
``beliefbound.cli`` and the tracer summary of the call to ``cli.main``.
"""

import time

_t0 = time.process_time()
import beliefbound.cli as cli  # noqa: E402

IMPORT_MS = (time.process_time() - _t0) * 1e3

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = {"import_ms": IMPORT_MS, "summary": tracer.summary(), "counters": tracer.counters}
    sys.stderr.write("BENCH_TRACE " + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
