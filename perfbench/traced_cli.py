"""Run the avnlab CLI with the benchmark's tracer installed.

    python perfbench/traced_cli.py TRACE_OUT <avnlab arguments...>

Behaves as `python -m avnlab.cli <arguments>` and, in addition, writes the
trace of the run (aggregates and spans, see tracing.py) as JSON to
TRACE_OUT when the run ends.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    trace_out, args = sys.argv[1], sys.argv[2:]
    import avnlab.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return avnlab.cli.main(args)
    finally:
        op = tracer.end_op()
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(op.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
