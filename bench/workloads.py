"""The four benchmark workloads: CLI inputs per seed, agreement with the
stored seed-commit output.

Seed 0 runs the documented commands verbatim.  Other seeds pick one of a
few same-size variants (see README.md), so every run of a workload does the
same amount of work and every variant has a stored seed-commit reference.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ".bench_work"  # relative to the checkout root, the CLI's cwd

CAP_DIGITS = 15.0
MIN_DIGITS = 12.0  # values must agree to 1e-12 relative with the reference

GRID_OFFSETS = (0.0, 0.125, 0.25, 0.375)  # Im-window shift, below the 5.0 step
SIEVE_IMAG = (1.0, 2.0, 3.0, 4.0)
# Seconds the seed-commit program (bench/baseline/) takes at the nominal
# speed: medians of its samples on a 2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6.  Reported times are checkout/baseline ratios times these.
NOMINAL_WALL_S = {"grid": 1.85, "sieve": 4.1, "scan": 3.8, "graph": 1.25}
NOMINAL_SETUP_S = 0.5
# the smoke variants at the same speed
SMOKE_NOMINAL_WALL_S = {"grid": 0.015, "sieve": 0.07, "scan": 3.5, "graph": 1.2}

# voltage-1 edge per seed: K4 edges 0, 1 and 3 each cost 59,792
# cyclotomic operations; the other three cost 1.1% fewer
HOT_EDGES = (0, 1, 3)
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# Functions each workload must reach; a traced run that records zero calls
# for one of them fails, so a renamed function cannot pass as a 0 s "gain".
LAYERS = {
    "grid": ["cli.main", "core.primes_up_to", "core.arrays_up_to",
             "core.log_product", "numberfield.enumerate", "primes.primes_up_to",
             "continuation.continue_f_power", "numberfield.g",
             "lfunctions.dirichlet_L", "lfunctions.hurwitz_zeta"],
    "sieve": ["cli.main", "primes.primes_up_to", "numberfield.enumerate",
              "core.primes_up_to", "core.arrays_up_to", "core.log_product",
              "frobenius.log_L"],
    "scan": ["cli.main", "lfunctions.hurwitz_zeta", "lfunctions.dirichlet_L",
             "numberfield.g", "numberfield.find_zeros",
             "continuation.boundary_report"],
    "graph": ["cli.main", "graphs.graph_L", "graphs.ihara_det",
              "graphs.ihara_edge", "graphs.cover_zeta_inverse",
              "graphs.partial_zeta_series", "graphs.primitive_cycles",
              "graphs.build_cover", "series.Cyclotomic", "series.ExactSeries"],
}


@dataclass
class Workload:
    name: str
    argv: list[str]
    variant: str            # names the stored reference output
    files: dict[str, str]   # input files to write, path relative to the root
    params: dict            # what the oracles need to know about the input
    nominal_wall_s: float   # the baseline program's time at nominal speed

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}-{self.variant}.txt"


def _fmt(x: float) -> str:
    return f"{x:g}"


def _graph_text(n: int, edges: list[tuple[int, int]], hot: int) -> str:
    """3-regular base graph (q_g = 2), Z/3 voltage 1 on edge `hot` only."""
    lines = [f"{n} 2 3"]
    lines += [f"{u} {v} {1 if i == hot else 0}" for i, (u, v) in enumerate(edges)]
    return "\n".join(lines) + "\n"


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload `name` for `seed`; `smoke` selects the tiny version."""
    tag = "smoke-" if smoke else ""
    nominal = (SMOKE_NOMINAL_WALL_S if smoke else NOMINAL_WALL_S)[name]
    if name == "grid":
        k = seed % len(GRID_OFFSETS)
        o = GRID_OFFSETS[k]
        n_re, n_im, cutoff = (3, 5, "1e4") if smoke else (9, 7, "1e6")
        argv = ["continue", "--backend", "quadratic", "--d", "5", "--grid",
                f"0.55:0.95:{n_re},{_fmt(o)}:{_fmt(o + 30)}:{n_im}",
                "--depth", "1", "--cutoff", cutoff]
        return Workload(name, argv, f"{tag}{k}", {}, {"cutoff": float(cutoff)},
                        nominal)
    if name == "sieve":
        k = seed % len(SIEVE_IMAG)
        t = SIEVE_IMAG[k]
        cutoff = "1e5" if smoke else "1e7"
        argv = ["eval", "--backend", "quadratic", "--d", "5",
                "--s", f"2,{_fmt(t)}", "--cutoff", cutoff]
        return Workload(name, argv, f"{tag}{k}", {}, {"s": complex(2.0, t)}, nominal)
    if name == "scan":
        # one input for every seed: any other field or height changes the work
        height = "25" if smoke else "28"
        argv = ["boundary", "--backend", "quadratic", "--d", "5",
                "--height", height]
        return Workload(name, argv, f"{tag}0", {}, {"height": float(height)},
                        nominal)
    if name == "graph":
        # every edge of K4 is equivalent to every other under an
        # automorphism, so all variants must print the same JSON
        path = f"{WORK_DIR}/voltage_graph.txt"
        hot = HOT_EDGES[seed % len(HOT_EDGES)]
        text = _graph_text(4, K4_EDGES, hot)
        argv = ["graph", "verify", "--graph-file", path]
        if smoke:
            argv += ["--order", "6"]
        return Workload(name, argv, f"{tag}0", {path: text}, {}, nominal)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# agreement with the stored seed-commit output
# ---------------------------------------------------------------------------

def _as_float(text):
    if not isinstance(text, str):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _rel_err(new: float, ref: float, angle: bool = False) -> float:
    if math.isnan(new) or math.isnan(ref):
        return 0.0 if math.isnan(new) and math.isnan(ref) else math.inf
    d = abs(new - ref)
    if angle:  # arg values at -pi and pi print the same point
        d = min(d, abs(2 * math.pi - d))
    return d / max(1.0, abs(ref))


def _json_err(new, ref) -> float:
    """Largest relative error over the numbers in two JSON trees; inf when
    their shape, keys or any non-numeric value differ."""
    if isinstance(ref, dict):
        if not isinstance(new, dict) or new.keys() != ref.keys():
            return math.inf
        return max((_json_err(new[k], ref[k]) for k in ref), default=0.0)
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            return math.inf
        return max((_json_err(a, b) for a, b in zip(new, ref)), default=0.0)
    a, b = _as_float(new), _as_float(ref)
    if a is not None and b is not None:
        return _rel_err(a, b)
    return 0.0 if type(new) is type(ref) and new == ref else math.inf


def _csv_err(new: str, ref: str) -> float:
    new_rows = [r.split(",") for r in new.strip().splitlines()]
    ref_rows = [r.split(",") for r in ref.strip().splitlines()]
    if len(new_rows) != len(ref_rows) or new_rows[0] != ref_rows[0]:
        return math.inf
    header = ref_rows[0]
    worst = 0.0
    for a, b in zip(new_rows[1:], ref_rows[1:]):
        if len(a) != len(header) or len(b) != len(header):
            return math.inf
        try:
            for col, x, y in zip(header, a, b):
                worst = max(worst, _rel_err(float(x), float(y), angle=col == "arg"))
        except ValueError:
            return math.inf
    return worst


def agree_digits(wl: Workload, output: str) -> float:
    """-log10 of the worst relative deviation from the reference, capped.

    The graph workload prints exact results, so anything but an identical
    text scores 0.
    """
    ref = wl.reference_path.read_text()
    if wl.name == "graph":
        err = 0.0 if output == ref else math.inf
    elif wl.name == "grid":
        err = _csv_err(output, ref)
    else:
        try:
            err = _json_err(json.loads(output), json.loads(ref))
        except json.JSONDecodeError:
            err = math.inf
    if err == 0.0:
        return CAP_DIGITS
    return max(0.0, min(CAP_DIGITS, -math.log10(err)))

