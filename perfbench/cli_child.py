"""Run the fuzzseed CLI with its layers traced.

    python perfbench/cli_child.py SPANS_OUT CLI_ARG...

Times `import fuzzseed.cli` as the span "cli.import", wraps every public
function (tracing.Tracer.install), runs `fuzzseed.cli.main` on the given
arguments and writes the spans to SPANS_OUT as JSON. The exit code is the
CLI's.
"""

import importlib
import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.step("cli.import"):
        cli = importlib.import_module("fuzzseed.cli")
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
