"""System JSON, a round trip of a ZetaSystem through its backend name and
the inputs that rebuild it; no CLI command reads or writes it, so it lives
with the tests."""
import json

from partialzeta.core import ZetaSystem
from partialzeta.errors import InvalidConfigError
from partialzeta.graphs import GraphZetaSystem, parse_graph_file
from partialzeta.lfunctions import is_primitive_root, prime_order_character
from partialzeta.numberfield import (AbelianSystem, cyclic_system,
                                     kronecker_system)

from graph_oracles import dump_graph_file
from prime_data import ExplicitSystem


def system_params(sys: ZetaSystem) -> dict:
    """The inputs that rebuild sys through its backend."""
    if isinstance(sys, ExplicitSystem):
        t = sys.primes_up_to(float("inf"))
        return {"norm": t.norm.tolist(), "frob_class": t.frob_class.tolist(),
                "frob_order": t.frob_order.tolist(), "id": t.id.tolist(),
                "group_order": sys.group_order}
    if isinstance(sys, GraphZetaSystem):
        return {"text": dump_graph_file(sys.vg)}
    if isinstance(sys, AbelianSystem):
        if sys.d is not None:
            return {"d": sys.d}
        # chi(g) = e^{2 pi i/q} fixes chi only when g is a primitive root
        m = sys.chi.modulus
        gen = next(a for a in range(2, m)
                   if sys.chi.exps.get(a) == 1 and is_primitive_root(a, m))
        return {"modulus": m, "order": sys.chi.order, "generator": gen}
    return {}


def system_to_json(sys: ZetaSystem) -> str:
    return json.dumps({"backend": sys.backend, "params": system_params(sys)},
                      sort_keys=True)


def system_from_json(text: str) -> ZetaSystem:
    """Inverse of system_to_json for all built-in backends."""
    try:
        obj = json.loads(text)
        backend = obj["backend"]
        params = obj["params"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidConfigError(f"bad system JSON: {exc}") from exc
    if backend == "explicit":
        return ExplicitSystem(**params)
    if backend == "quadratic":
        return kronecker_system(params["d"])
    if backend == "cyclic":
        chi = prime_order_character(params["modulus"], params["order"],
                                    params.get("generator"))
        return cyclic_system(chi)
    if backend == "graph":
        return GraphZetaSystem(parse_graph_file(params["text"]))
    raise InvalidConfigError(f"unknown backend {backend!r}")
