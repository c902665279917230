"""Traced stand-in for ``python -m crystalforge.cli``.

Usage: launch.py SPANS_FILE OP_ID CLI_ARGS...

Installs the tracing hooks, calls ``crystalforge.cli.run`` with CLI_ARGS
and exits with its code.  The spans are written to SPANS_FILE also when
the command raises, so a crash is traced as well.
"""

import sys

import crystalforge.cli

import tracing


def main() -> None:
    spans_file, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.op = op_id
    tracing.install(tracer)
    try:
        code = crystalforge.cli.run(argv)
    finally:
        tracer.dump(spans_file)
    sys.exit(code)


if __name__ == "__main__":
    main()
