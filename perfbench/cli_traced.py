"""One traced CLI job: ``python cli_traced.py OUT.json <phigamma argv...>``.

Runs ``phigamma.cli.main(argv)`` in this fresh process with the tracer of
``tracing.py`` installed, passes the report through on stdout and the exit
code through, and writes the roll-up, the import time, the wall time of
``main`` and the spans to OUT.json.
"""
import json
import sys
import time

t0 = time.perf_counter()
import phigamma.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def run(out_path, argv) -> int:
    tracer = Tracer().install()
    tracer.begin_unit(" ".join(argv))
    t = time.perf_counter()
    try:
        rc = phigamma.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t
        sys.stdout.flush()
        tracer.uninstall()
        rollup = tracer.rollup()
        rollup["cli"] = {"cmd": "-".join(argv), "import_s": import_s, "main_s": main_s}
        rollup["spans"] = tracer.spans
        with open(out_path, "w") as fh:
            json.dump(rollup, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
