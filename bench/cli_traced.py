"""Run one ``obsv-lab`` command with the span recorder installed and write
its spans as JSON to the path given first and its speed report (pace.py) to
the path given second: ``cli_traced.py SPANS REPORT ARGS...``.  The
command's own stdout, stderr and exit code are left as they are."""

import json
import sys

from pace import Clock

if __name__ == "__main__":
    clock = Clock()
    import obsv_lab.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[3:])
    finally:
        clock.report(sys.argv[2])
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)
