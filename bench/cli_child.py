"""One traced `qcomb` invocation: python3 cli_child.py LABEL ARGV...

Installs the tracer, runs `qcomb.cli.main(ARGV)` with the span named
`cli.LABEL`, then appends the span statistics to stdout after a marker
line and exits with the CLI's exit code.
"""

import json
import sys

from tracer import TRACE_MARKER, Tracer

if __name__ == "__main__":
    label, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install({"cli.main": f"cli.{label}"})
    from qcomb import cli

    code = cli.main(argv)
    sys.stdout.write(TRACE_MARKER + json.dumps(tracer.report()) + "\n")
    sys.exit(code)
