"""Command-line front end: build systems, evaluate, verify, find zeros,
emit boundary reports and plot-ready grids.

Determinism contract: identical configuration produces byte-identical output
(all floating results are formatted at 15 significant digits, JSON keys are
sorted, grid rows are sorted).  Exit codes: 2 invalid configuration or
too few cataloged singularities, 3 domain error, 5 budget exceeded or
unresolved argument-principle box.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys as _sys

import numpy as np

from . import __version__
from .continuation import (GEvaluator, PartialZetaEvaluator, SingularityCatalog,
                           boundary_report, continue_f_power,
                           counting_functions, feq_residual)
from .core import TruncationPolicy, ZetaSystem, exp_of_log
from .errors import BudgetExceededError, DomainError, InvalidConfigError
from .frobenius import CyclicGroup, zp_factorization_residual
from .graphs import (GraphZetaSystem, VoltageGraph, build_cover,
                     cover_zeta_inverse, g_series_fraction,
                     graph_Ls, graph_singularities_in_s, ihara_det, ihara_edge,
                     parse_graph_file, partial_zeta_series)
from .lfunctions import HEIGHT_MAX, prime_order_character
from .numberfield import (AbelianSystem, cyclic_system, find_zeros,
                          g_closed_form, kronecker_system)
from .series import Cyclotomic, ExactSeries


# largest --grid; also bounds the memory of a batched evaluation
MAX_GRID_POINTS = 10_000


def _fmt(x):
    """15-significant-digit canonical form, applied recursively."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return f"{x:.15g}"
    if isinstance(x, complex):
        return {"re": f"{x.real:.15g}", "im": f"{x.imag:.15g}"}
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    raise InvalidConfigError(f"unformattable output value {x!r}")


def _series_json(series: ExactSeries):
    def pair(v):
        return [str(v.numerator), str(v.denominator)]
    return [[pair(v) for v in c.vec] if isinstance(c, Cyclotomic) else pair(c)
            for c in series.coeffs]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    payload["config"] = _fmt(_resolved_config(args))
    payload["version"] = __version__
    _emit(args, json.dumps(_fmt(payload), sort_keys=True, indent=2) + "\n")


def _resolved_config(args) -> dict:
    keep = ("command", "graph_command", "backend", "d", "char", "graph_file",
            "catalog_file", "s", "grid", "cutoff", "depth", "height", "order",
            "tolerance")
    return {k: getattr(args, k) for k in keep
            if getattr(args, k, None) is not None}


def _check_finite(text: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidConfigError(f"non-finite number in {text!r}")


def _parse_s(text: str | None) -> complex:
    if text is None:
        raise InvalidConfigError("no evaluation point: pass --s or --grid")
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise InvalidConfigError(f"bad s-point {text!r}; expected 're' or 're,im'")
    _check_finite(text, *parts)
    return complex(parts[0], parts[1] if len(parts) == 2 else 0.0)


def _parse_grid(text: str) -> list[complex]:
    """Grid spec 're0:re1:n_re,im0:im1:n_im' -> row-major list of points."""
    try:
        re_spec, im_spec = text.split(",")
        r0, r1, nr = re_spec.split(":")
        i0, i1, ni = im_spec.split(":")
        r0, r1, nr = float(r0), float(r1), int(nr)
        i0, i1, ni = float(i0), float(i1), int(ni)
    except ValueError as exc:
        raise InvalidConfigError(
            f"bad grid {text!r}; expected re0:re1:n,im0:im1:n") from exc
    if nr < 1 or ni < 1:
        raise InvalidConfigError("grid needs at least one point per axis")
    if nr * ni > MAX_GRID_POINTS:
        raise BudgetExceededError(
            f"grid of {nr} x {ni} points exceeds {MAX_GRID_POINTS} points")
    _check_finite(text, r0, r1, i0, i1)
    pts = []
    for a in range(nr):
        re = r0 if nr == 1 else r0 + (r1 - r0) * a / (nr - 1)
        for b in range(ni):
            im = i0 if ni == 1 else i0 + (i1 - i0) * b / (ni - 1)
            pts.append(complex(re, im))
    return pts


def _load_voltage_graph(args) -> VoltageGraph:
    if not args.graph_file:
        raise InvalidConfigError("graph backend needs --graph-file")
    with open(args.graph_file) as fh:
        return parse_graph_file(fh.read())


def _build_system(args) -> ZetaSystem:
    backend = args.backend
    if backend == "quadratic":
        if args.d is None:
            raise InvalidConfigError("quadratic backend needs --d")
        return kronecker_system(args.d)
    if backend == "cyclic":
        if not args.char:
            raise InvalidConfigError(
                "cyclic backend needs --char modulus,order[,generator]")
        try:
            parts = [int(t) for t in args.char.split(",")]
        except ValueError:
            parts = []
        if len(parts) not in (2, 3):
            raise InvalidConfigError("--char takes modulus,order[,generator]")
        chi = prime_order_character(parts[0], parts[1],
                                    parts[2] if len(parts) == 3 else None)
        return cyclic_system(chi)
    if backend == "graph":
        return GraphZetaSystem(_load_voltage_graph(args))
    raise InvalidConfigError(f"backend {backend!r} has no prime enumeration")


def _g_evaluator(args, sys_obj: ZetaSystem) -> GEvaluator:
    if isinstance(sys_obj, AbelianSystem):
        return g_closed_form(sys_obj)
    if isinstance(sys_obj, GraphZetaSystem):
        vg = sys_obj.vg
        num, den = g_series_fraction(vg)
        q_g = vg.base.q_g

        def fn(s: np.ndarray) -> np.ndarray:
            """g at each point of s by the exact series, one at a time."""
            vals = []
            for z in s.tolist():
                u = cmath.exp(-z * math.log(q_g))
                vals.append(num(u) / den(u))
            return np.array(vals, dtype=complex)

        return GEvaluator(fn)
    raise InvalidConfigError(f"no g evaluator for backend {sys_obj.backend!r}")


def _load_catalog(args) -> tuple[SingularityCatalog, int | None]:
    """The singularity catalog of the command's input, and the q of the
    graph or system it was computed from (None for --backend catalog)."""
    _check_finite(f"--height={args.height}", args.height)
    if args.catalog_file:
        if args.backend != "catalog":
            raise InvalidConfigError("--catalog-file is read only with "
                                     "--backend catalog")
        with open(args.catalog_file) as fh:
            return SingularityCatalog.from_csv(fh.read(), args.height), None
    if args.backend == "catalog":
        raise InvalidConfigError("--backend catalog needs --catalog-file")
    if args.backend == "graph":
        # a graph's towers grow with T as a zero search's boxes do
        if args.height > HEIGHT_MAX:
            raise InvalidConfigError(
                f"graph catalogs above T={HEIGHT_MAX:g} are out of scope")
        vg = _load_voltage_graph(args)
        return (graph_singularities_in_s(g_series_fraction(vg), vg.base.q_g,
                                         args.height), vg.q_c)
    sys_obj = _build_system(args)
    return find_zeros(g_closed_form(sys_obj), args.height), sys_obj.group_order


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sieve(args) -> None:
    sys_obj = _build_system(args)
    _emit(args, sys_obj.dump_csv(args.cutoff))


def cmd_eval(args) -> None:
    from .core import truncated_zeta_P, truncated_zeta_Pn
    from .frobenius import truncated_Z

    sys_obj = _build_system(args)
    pol = TruncationPolicy(args.cutoff)
    pts = _parse_grid(args.grid) if args.grid else [_parse_s(args.s)]
    g = CyclicGroup(sys_obj.group_order) if sys_obj.group_order > 1 else None
    results = []
    for s in pts:
        entry: dict = {"s": s}
        v, tail = truncated_zeta_P(sys_obj, s, pol)
        entry["zeta_P"] = {"value": v, "tail": tail}
        if g is not None:
            for n in g.divisors():
                vn, tn = truncated_zeta_Pn(sys_obj, n, s, pol)
                entry[f"zeta_P{n}"] = {"value": vn, "tail": tn}
            vz, tz = truncated_Z(sys_obj, s, pol)
            entry["Z_P"] = {"value": vz, "tail": tz}
        results.append(entry)
    _emit_json(args, {"results": results})


def _polar(log_val: complex) -> tuple[float, float]:
    """(log |v|, arg v) of v = exp(log_val): from v where |v| is a normal
    double, so the row holds the digits of the value `--s` prints, and from
    log_val where v leaves that range (a subnormal |v| keeps too few bits).
    A refused point's nan log gives nan, nan (abs() of a nan can raise on
    an errno left by numpy's libm calls)."""
    if not cmath.isfinite(log_val):
        return math.nan, math.nan
    try:
        val = exp_of_log(log_val)
    except DomainError:  # |v| outside the normal doubles
        val = 0j
    if abs(val) >= _sys.float_info.min:
        return math.log(abs(val)), cmath.phase(val)
    return log_val.real, math.remainder(log_val.imag, 2 * math.pi)


def cmd_continue(args) -> None:
    sys_obj = _build_system(args)
    ev = PartialZetaEvaluator(sys_obj, _g_evaluator(args, sys_obj), args.depth,
                              TruncationPolicy(args.cutoff))
    if args.grid:
        pts = sorted(_parse_grid(args.grid), key=lambda z: (z.real, z.imag))
        rows = ["re,im,log_abs,arg"]
        logs = continue_f_power(ev, np.array(pts), log=True)
        for s, log_val in zip(pts, logs.tolist()):
            log_abs, arg = _polar(log_val)
            rows.append(f"{s.real:.15g},{s.imag:.15g},"
                        f"{log_abs:.15g},{arg:.15g}")
        _emit(args, "\n".join(rows) + "\n")
        return
    s = _parse_s(args.s)
    val = ev(s)
    _emit_json(args, {"s": s, "depth": args.depth, "q": sys_obj.group_order,
                      "f_power": val, "domain_re_floor": ev.domain_re_floor})


def cmd_feq_check(args) -> None:
    sys_obj = _build_system(args)
    s = _parse_s(args.s)
    tol = args.tolerance if args.tolerance is not None else 1e-10
    # every CLI backend has a prime group order, so the prime-order
    # functional equation is the one to check
    residuals = {"zp_factorization": zp_factorization_residual(sys_obj, s,
                                                               args.cutoff),
                 "feq": feq_residual(sys_obj, s, args.cutoff)}
    ok = all(r <= tol for r in residuals.values())
    _emit_json(args, {"residuals": residuals, "tolerance": tol,
                      "pass": bool(ok)})


def cmd_zeros(args) -> None:
    _emit(args, _load_catalog(args)[0].to_csv())


def cmd_boundary(args) -> None:
    if args.depth is not None and args.backend != "catalog":
        raise InvalidConfigError("--depth is read only with --backend catalog")
    cat, q = _load_catalog(args)
    if args.backend == "catalog":
        if args.depth is None or args.depth < 2:
            raise InvalidConfigError("catalog backend needs --depth to pass "
                                     "q >= 2")
        q = args.depth
    alpha = 0.25
    try:
        report = boundary_report(cat, q, args.height)
        i_t, j_t, om_t = counting_functions(cat, q, args.height, alpha)
    except OverflowError as exc:  # q^k or a gap's end past a double
        raise DomainError(f"the boundary report of this catalog leaves a "
                          f"double's range: {exc}") from exc
    report["counting"] = {"I": i_t, "J_alpha": j_t, "Omega_q": om_t,
                          "alpha": alpha}
    _emit_json(args, report)


def cmd_graph(args) -> None:
    sub = args.graph_command
    if args.order is not None and sub not in ("partial", "verify"):
        raise InvalidConfigError(f"--order is read only by graph partial "
                                 f"and verify, not graph {sub}")
    if args.order is not None and args.order < 0:
        raise InvalidConfigError("--order must be >= 0")
    vg = _load_voltage_graph(args)
    if sub == "ihara":
        det = ihara_det(vg.base)
        edge = ihara_edge(vg.base)
        _emit_json(args, {"zeta_inverse": _series_json(det),
                          "edge_det": _series_json(edge),
                          "agree": det == edge})
    elif sub == "cover":
        cover = build_cover(vg)
        _emit_json(args, {"n": cover.n, "m": cover.m,
                          "connected": cover.is_connected(),
                          "edges": [list(e) for e in cover.edges]})
    elif sub == "lfun":
        ls = graph_Ls(vg)
        payload = {f"L{j}": _series_json(lj) for j, lj in enumerate(ls)}
        payload["product_zeta_Y_inverse"] = _series_json(cover_zeta_inverse(vg, ls))
        _emit_json(args, payload)
    elif sub == "partial":
        l_ord = args.order if args.order is not None else 12
        direct, recursive = partial_zeta_series(vg, l_ord, g_series_fraction(vg))
        _emit_json(args, {"direct": _series_json(direct),
                          "recursive": _series_json(recursive),
                          "agree": direct.coeffs == recursive.coeffs,
                          "order": l_ord})
    elif sub == "verify":
        base = vg.base
        det, edge = ihara_det(base), ihara_edge(base)
        l_ord = args.order if args.order is not None else 12
        checks = {"bass_identity": det == edge}
        prod = cover_zeta_inverse(vg)
        checks["cover_identity"] = prod == ihara_det(build_cover(vg))
        direct, recursive = partial_zeta_series(vg, l_ord, (prod, edge ** vg.q_c))
        checks["partial_dual_route"] = direct.coeffs == recursive.coeffs
        _emit_json(args, {"checks": checks,
                          "pass": bool(all(checks.values()))})
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidConfigError(f"unknown graph subcommand {sub!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_backend_flags(p: argparse.ArgumentParser) -> argparse.Action:
    """--backend with the inputs of the three prime systems and --out;
    returns the --backend action."""
    backend = p.add_argument("--backend", default="quadratic",
                             choices=["quadratic", "cyclic", "graph"])
    p.add_argument("--d", type=int, help="square-free d for the quadratic backend")
    p.add_argument("--char", help="cyclic character: modulus,order[,generator]")
    p.add_argument("--graph-file", help="edge-list file, header 'n q_g q_c'")
    p.add_argument("--out", help="output path (default stdout)")
    return backend


def _add_catalog_flags(p: argparse.ArgumentParser) -> None:
    """Backend flags of the commands that read a singularity catalog, which
    may come from a CSV file instead of a system (--backend catalog)."""
    _add_backend_flags(p).choices.append("catalog")
    p.add_argument("--catalog-file", help="singularity catalog CSV (re,im,order)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="partialzeta",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="dump the enumerated prime data as CSV")
    _add_backend_flags(p)
    p.add_argument("--cutoff", type=float, required=True)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("eval", help="truncated zeta_P, zeta_Pn and Z_P values")
    _add_backend_flags(p)
    p.add_argument("--s", help="evaluation point 're,im'")
    p.add_argument("--grid", help="grid re0:re1:n,im0:im1:n")
    p.add_argument("--cutoff", type=float, default=1e4)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("continue",
                       help="f(s)^{q^r} by the continuation recursion")
    _add_backend_flags(p)
    p.add_argument("--s")
    p.add_argument("--grid")
    p.add_argument("--depth", type=int, default=1, help="recursion depth r")
    p.add_argument("--cutoff", type=float, default=1e4)
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("feq-check", help="functional-equation residuals")
    _add_backend_flags(p)
    p.add_argument("--s", required=True)
    p.add_argument("--cutoff", type=float, default=1e4)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_feq_check)

    p = sub.add_parser("zeros", help="singularity catalog of g by the "
                                     "argument principle")
    _add_catalog_flags(p)
    p.add_argument("--height", type=float, required=True)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("boundary", help="natural-boundary diagnostics report")
    _add_catalog_flags(p)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--depth", type=int,
                   help="q for the catalog backend (no system to read it from)")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("graph", help="exact graph-side computations")
    p.add_argument("graph_command",
                   choices=["ihara", "cover", "lfun", "partial", "verify"])
    p.add_argument("--graph-file", help="edge-list file, header 'n q_g q_c'")
    p.add_argument("--order", type=int, help="series truncation order")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_graph, backend="graph")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except (InvalidConfigError, DomainError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return (3 if isinstance(exc, DomainError)
                else 5 if isinstance(exc, BudgetExceededError) else 2)
    return 0


if __name__ == "__main__":  # pragma: no cover
    _sys.exit(main())
