"""One `qremote` CLI call with the span tracer installed, for traced cli-mix runs.

Usage: python3 perfbench/cli_child.py SPANS_FILE <qremote arguments...>

Behaves like `python3 -m qremote <arguments>` (same output, same exit code)
and, on exit, writes its spans and the time its own `import qremote` took
to SPANS_FILE. PYTHONPATH must reach the package, as it does for the
untraced calls.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    start = time.perf_counter()
    import qremote.cli  # timed: the import is a layer

    tracer = Tracer()
    tracer.import_ms.append(1e3 * (time.perf_counter() - start))
    tracer.install()
    try:
        return qremote.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
