"""Run one corrsync CLI command with the tracer installed.

    python perfbench/clitrace.py SPANS_PATH <corrsync arguments>

Equivalent to `python -m corrsync <arguments>`, except that the spans of the
call are written to SPANS_PATH (one JSON object per line) before it exits.
Needs corrsync importable (PYTHONPATH=src).
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer("cli20")
    tracer.install()
    import corrsync.cli

    try:
        with tracer.span("cli.main"):
            return corrsync.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
