"""partialzeta benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload grid|sieve|scan|graph --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the package is taken from its src/.
Every sample is a fresh interpreter (bench/worker.py) running
`partialzeta.cli.main(argv)` once, because CLI users pay the import and the
prime sieve on every call.  Samples run one after another, single-threaded
(closed loop, one client), for about S seconds.  --trace 0 reports the
end-to-end metrics, --trace 1 runs one untraced and one traced sample and
reports the per-layer metrics.

The host's speed drifts by tens of percent over minutes, so --trace 0
pairs every sample with an adjacent sample of the same input run by a
frozen copy of the seed-commit package (bench/baseline/).  The end-to-end
times are the checkout's median over the baseline's median, times the
baseline's nominal time: seconds at the speed recorded in workloads.py.
The last stdout line is the result JSON; the line before it records the
environment and the raw samples.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"                  # the program under test
BASELINE = BENCH_DIR / "baseline"   # the seed-commit program, the yardstick
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5       # set-up is short and noisy: report a median
RUN_LIMIT_S = 150.0     # start no new sample after this; a run must end by 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio", "agree_digits": "digits"}

GRAPH_FUNCS = ("graph_L", "ihara_det", "ihara_edge", "cover_zeta_inverse",
               "partial_zeta_series", "primitive_cycles", "build_cover")
PER_LAYER = [
    "primes.primes_up_to.calls", "primes.primes_up_to.self_s",
    "numberfield.enumerate.calls", "numberfield.enumerate.self_s",
    "numberfield.enumerate.primes", "numberfield.enumerate.primes_per_s",
    "core.primes_up_to.calls", "core.primes_up_to.self_s",
    "core.arrays_up_to.calls", "core.arrays_up_to.self_s",
    "core.log_product.calls", "core.log_product.self_s",
    "core.log_product.pairs", "core.log_product.pairs_per_s",
    "core.tail_slack",
    "frobenius.log_L.calls", "frobenius.log_L.self_s",
    "continuation.continue_f_power.calls", "continuation.continue_f_power.self_s",
    "continuation.boundary_report.self_s",
    "lfunctions.hurwitz_zeta.calls", "lfunctions.hurwitz_zeta.self_s",
    "lfunctions.hurwitz_zeta.evals_per_s",
    "lfunctions.dirichlet_L.calls", "lfunctions.dirichlet_L.self_s",
    "numberfield.g.calls", "numberfield.g.self_s",
    "numberfield.find_zeros.calls", "numberfield.find_zeros.self_s",
    "numberfield.find_zeros.points", "numberfield.find_zeros.g_calls_per_point",
    "numberfield.find_zeros.zeta_zero_err",
    "numberfield.find_zeros.zeta_zeros_missed",
    *[f"graphs.{f}.{k}" for f in GRAPH_FUNCS for k in ("calls", "self_s")],
    "graphs.primitive_cycles.cycles",
    "series.Cyclotomic.ops", "series.Cyclotomic.self_s",
    "series.ExactSeries.ops", "series.ExactSeries.self_s",
    "cli.main.self_s", "trace.overhead_s",
]
# unit of a per-layer metric, by the last component of its name
LAYER_UNITS = {"calls": "count", "ops": "count", "primes": "count",
               "pairs": "count", "cycles": "count", "points": "count",
               "self_s": "s", "overhead_s": "s", "primes_per_s": "1/s",
               "pairs_per_s": "1/s", "evals_per_s": "1/s",
               "g_calls_per_point": "ratio", "tail_slack": "ratio",
               "zeta_zero_err": "abs", "zeta_zeros_missed": "count"}


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def spawn(mode: str, argv: list[str] | None, timeout: float,
          src: Path = SRC) -> dict | None:
    """Run one worker process on the package in `src` to completion; its
    report, or None if it failed."""
    extra = [] if argv is None else [json.dumps(argv)]
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), repr(t0), mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(src), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def write_inputs(wl: workloads.Workload) -> None:
    for rel, text in wl.files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class Checker:
    """Judges each sample's output: exit code, reference, oracles."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self._oracle: dict[str, tuple[bool, float]] = {}

    def oracle(self, output: str) -> tuple[bool, float]:
        """(passed, core.tail_slack or 0) for one output, computed once."""
        if output not in self._oracle:
            wl, slack = self.wl, 0.0
            if wl.name == "grid":
                ok = oracles.grid_error(output, wl.params["cutoff"]) <= oracles.GRID_TOL
            elif wl.name == "sieve":
                slack = oracles.sieve_tail_slack(output, wl.params["s"])
                ok = slack >= 1.0
            elif wl.name == "graph":
                ok = json.loads(output).get("pass") is True
            else:  # scan: the traced run checks the catalog itself
                ok = True
            self._oracle[output] = (ok, slack)
        return self._oracle[output]

    def judge(self, report: dict | None) -> tuple[bool, float]:
        """(sample passed, agree_digits) for one worker report."""
        if report is None or report["rc"] != 0:
            return False, 0.0
        digits = workloads.agree_digits(self.wl, report["output"])
        return digits >= workloads.MIN_DIGITS and self.oracle(report["output"])[0], digits


def _layer_value(name: str, stats: dict) -> float:
    prefix, field = name.rsplit(".", 1)
    st = stats.get(prefix, {})

    def ratio(a, b):
        return a / b if b else 0.0

    if field == "ops":
        return st.get("calls", 0)
    if field == "evals_per_s":
        return ratio(st.get("calls", 0), st.get("self_s", 0.0))
    if field.endswith("_per_s"):
        return ratio(st.get(field[:-len("_per_s")], 0), st.get("self_s", 0.0))
    if field == "g_calls_per_point":
        return ratio(st.get("g_calls", 0), st.get("points", 0))
    return st.get(field, 0)


def _pair(mode: str, argv, start: float, baseline_first: bool):
    """(checkout report, baseline report) of two adjacent worker runs."""
    got = {}
    for src in (BASELINE, SRC) if baseline_first else (SRC, BASELINE):
        got[src] = spawn(mode, argv, RUN_LIMIT_S + 25 - (time.monotonic() - start), src)
    if got[BASELINE] is None or got[BASELINE].get("rc", 0) != 0:
        raise RuntimeError(f"the baseline program failed on {argv}")
    return got[SRC], got[BASELINE]


def _ratio(pairs, key: str) -> float:
    """Median checkout value over median baseline value."""
    return (statistics.median(c[key] for c, _ in pairs)
            / statistics.median(b[key] for _, b in pairs))


def _measure_e2e(wl, checker: Checker, seconds: float, start: float):
    # start a pair only if one as long as the last still ends by the
    # deadline, so the samples of a run take at most `seconds` (or one pair);
    # the side that runs first alternates
    deadline = time.monotonic() + seconds
    pairs = []
    while True:
        t = time.monotonic()
        pairs.append(_pair("run", wl.argv, start, len(pairs) % 2 == 0))
        now = time.monotonic()
        if now + (now - t) > deadline or now - start > RUN_LIMIT_S:
            break
    done = [p for p in pairs if p[0]]
    if not done:
        return None
    setup = list(done)
    while len(setup) < SETUP_SAMPLES and time.monotonic() - start < RUN_LIMIT_S:
        c, b = _pair("setup", None, start, len(setup) % 2 == 0)
        if c:
            setup.append((c, b))
    judged = [checker.judge(c) for c, _ in pairs]
    ok = [j[0] for j in judged]
    metrics = {
        "wall_s": wl.nominal_wall_s * _ratio(done, "wall_s"),
        "setup_s": workloads.NOMINAL_SETUP_S * _ratio(setup, "setup_s"),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c, _ in done),
        "ok_frac": sum(ok) / len(pairs),
        "agree_digits": statistics.median(j[1] for j in judged),
    }
    raw = {"wall_s": [c["wall_s"] for c, _ in done],
           "baseline_wall_s": [b["wall_s"] for _, b in done],
           "cpu_s": [c["cpu_s"] for c, _ in done],
           "setup_s": [c["setup_s"] for c, _ in setup],
           "baseline_setup_s": [b["setup_s"] for _, b in setup],
           "rss_mb": [c["rss_mb"] for c, _ in done]}
    return metrics, len(pairs), len(pairs) - sum(ok), raw


def _measure_layers(wl, checker: Checker, start: float):
    plain = spawn("run", wl.argv, RUN_LIMIT_S - (time.monotonic() - start))
    traced = spawn("trace", wl.argv, 175 - (time.monotonic() - start))
    if plain is None or traced is None:
        return None
    stats = traced["stats"]
    missing = [n for n in workloads.LAYERS[wl.name]
               if stats.get(n, {}).get("calls", 0) == 0]
    if missing:
        print(f"no calls recorded for {missing}", file=sys.stderr)
    plain_ok, traced_ok = checker.judge(plain)[0], checker.judge(traced)[0]
    metrics = {n: _layer_value(n, stats) for n in PER_LAYER}
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    if traced_ok:
        metrics["core.tail_slack"] = checker.oracle(traced["output"])[1]
    zeros_ok = True
    if traced["catalogs"]:
        checks = [oracles.zeta_zero_check(c, wl.params["height"])
                  for c in traced["catalogs"]]
        err = max(c[0] for c in checks)
        metrics["numberfield.find_zeros.zeta_zero_err"] = err
        metrics["numberfield.find_zeros.zeta_zeros_missed"] = max(c[1] for c in checks)
        zeros_ok = err <= oracles.ZERO_TOL
    traced_ok = traced_ok and not missing and zeros_ok
    failed = (not plain_ok) + (not traced_ok)
    raw = {"wall_s": [plain["wall_s"]], "traced_wall_s": traced["wall_s"]}
    return metrics, 2, failed, raw


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """(environment and raw samples, result object) of one benchmark run."""
    if not (SRC / "partialzeta" / "cli.py").is_file():
        raise FileNotFoundError(f"no partialzeta sources under {SRC}")
    wl = workloads.make(name, seed, smoke)
    write_inputs(wl)
    try:
        start = time.monotonic()
        checker = Checker(wl)
        if trace:
            out = _measure_layers(wl, checker, start)
        else:
            out = _measure_e2e(wl, checker, seconds, start)
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)
    if out is None:
        raise RuntimeError("no sample completed")
    metrics, attempted, failed, raw = out
    units = {n: LAYER_UNITS[n.rsplit(".", 1)[1]] for n in PER_LAYER} if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    info = {"workload": name, "seed": seed, "argv": wl.argv, "trace": int(trace),
            "samples": raw, "env": environment()}
    return info, result


def environment() -> dict:
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), **versions,
            "commit": _commit(), "src_sha256": _src_digest(),
            "threads": {v: "1" for v in THREAD_VARS}}


def _src_digest() -> str:
    """Identifies the measured code where the checkout is no git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


SMOKE_NONZERO = {(w, False): ("agree_digits",) for w in workloads.LAYERS}
SMOKE_NONZERO.update({("sieve", True): ("core.tail_slack",),
                      ("scan", True): ("numberfield.find_zeros.points",)})


def smoke() -> int:
    """Tiny versions of all workloads, both modes, checked against the
    metric names and units declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            _, result = measure(name, 1, 1.0, trace, smoke=True)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {got} "
                                f"!= BENCHMARK.json {want[trace]}")
            if not result["correct"] or set(result) != {
                    "correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={int(trace)}: {result}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))
                   or not math.isfinite(m["value"])]
            # the reference and oracle checks must have run, not been skipped
            bad += [n for n in SMOKE_NONZERO.get((name, trace), ())
                    if not result["metrics"][n]["value"]]
            if bad:
                problems.append(f"{name} trace={int(trace)}: bad values {bad}")
            print(f"smoke {name} trace={int(trace)}: "
                  f"{'ok' if not problems else 'FAIL'}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.LAYERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run tiny versions of every workload and check the output")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        info, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
