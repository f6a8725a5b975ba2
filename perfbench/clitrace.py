"""Run one funcfields command under the tracer (the traced cli-cold pass).

    python3 perfbench/clitrace.py STATS.json <funcfields arguments>

Imports only the tracer and the program's CLI, so the traced run pays the
same imports as ``python3 -m funcfields.cli``; writes the per-name
aggregates and the span records to STATS.json and exits with the command's
exit code.
"""

import json
import sys

import tracing
import funcfields.cli as cli


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        rc = cli.run(argv)
    finally:
        stats = {k: [s.calls, s.total_s, s.self_s, s.hits] for k, s in tracer.stats.items()}
        with open(out, "w") as fh:
            json.dump({"stats": stats, "spans": tracer.spans}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
