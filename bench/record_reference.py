"""Write bench/reference/ from the output of the seed-commit program.

    python3 bench/record_reference.py

The stored files are the outputs of the frozen copy in bench/baseline/;
agree_digits measures the checkout against them.  Rerun this only when a
workload's input changes, and say so in CHANGES.md.
"""
import shutil
import sys

import run
import workloads

# seeds covering every variant that has its own reference
SEEDS = {"grid": range(len(workloads.GRID_OFFSETS)),
         "sieve": range(len(workloads.SIEVE_IMAG)), "scan": [0], "graph": [0]}


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        return _record()
    finally:
        shutil.rmtree(run.ROOT / workloads.WORK_DIR, ignore_errors=True)


def _record() -> int:
    for smoke in (True, False):
        for name, seeds in SEEDS.items():
            for seed in seeds:
                wl = workloads.make(name, seed, smoke)
                run.write_inputs(wl)
                rep = run.spawn("run", wl.argv, 600, run.BASELINE)
                if rep is None or rep["rc"] != 0:
                    print(f"{wl.argv} failed", file=sys.stderr)
                    return 1
                wl.reference_path.write_text(rep["output"])
                print(f"{wl.reference_path.name}: {rep['wall_s']:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
