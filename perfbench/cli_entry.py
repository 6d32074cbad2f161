"""Run the centdim command line in this process with boundary tracing.

    PERFBENCH_TRACE_FILE=counters.json python3 perfbench/cli_entry.py <centdim arguments>

Behaves like `python -m centdim.cli` (same output, same exit code, and an
uncaught exception still ends the process with a traceback), and writes the
boundary counters of the run, with the time `import centdim.cli` took, to
the file named by PERFBENCH_TRACE_FILE.
"""

import os
import sys
import time


def main():
    t0 = time.perf_counter()
    import centdim.cli as cli

    import_s = time.perf_counter() - t0
    # imported after the timed import, since centdim.cli imports them too
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer.wrap(cli.main, "cli.main")(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_FILE"], "w") as f:
            json.dump({"import_s": import_s, **tracer.take()}, f)


if __name__ == "__main__":
    sys.exit(main())
