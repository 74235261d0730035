"""Run one poppersim CLI command in this process with the layer tracer on.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID -- run scenario.json --oracle

The command's own output is unchanged.  The spans are written to SPANS_JSON
when the command ends, and the process exits with the command's exit code.
"""

import sys

from tracing import Tracer, dump_spans, layer_modules


def main() -> int:
    spans_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install(layer_modules())
    from poppersim import cli
    try:
        return cli.main(argv)
    finally:
        dump_spans(spans_path, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
