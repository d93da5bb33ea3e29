"""One benchmark sample in a fresh interpreter, as a CLI user pays for it.

    python3 bench/worker.py T0 setup
    python3 bench/worker.py T0 run|trace '<argv JSON>'

T0 is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers interpreter
start-up plus `import partialzeta.cli`.  The package comes from the one
directory on PYTHONPATH: the checkout's src/ or the benchmark's baseline/.
Prints one JSON line.
"""
import os
import sys
import time

T0 = float(sys.argv[1])
import partialzeta.cli as cli  # noqa: E402  (the import is what is timed)

SETUP_S = time.monotonic() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"imported {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    mode = sys.argv[2]
    report = {"setup_s": SETUP_S}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        buf = io.StringIO()
        t, c = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(json.loads(sys.argv[3]))
            except SystemExit as exc:  # argparse rejects its input
                rc = exc.code
        report.update(wall_s=time.perf_counter() - t,
                      cpu_s=time.process_time() - c, rc=rc, output=buf.getvalue())
        if tracer is not None:
            report.update(stats=tracer.stats, catalogs=tracer.catalogs)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
