"""System JSON, a round trip of a ZetaSystem through its backend name and
`params()`; no CLI command reads or writes it, so it lives with the tests."""
import json

from partialzeta.core import ExplicitSystem, PrimeDatum, ZetaSystem
from partialzeta.errors import InvalidConfigError
from partialzeta.graphs import GraphZetaSystem, parse_graph_file
from partialzeta.lfunctions import prime_order_character
from partialzeta.numberfield import cyclic_system, kronecker_system


def system_to_json(sys: ZetaSystem) -> str:
    return json.dumps({"backend": sys.backend, "params": sys.params()},
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
        primes = [PrimeDatum(norm=n, id=i, frob_class=c, frob_order=o)
                  for n, i, c, o in params["primes"]]
        return ExplicitSystem(primes, params.get("group_order", max(
            (p.frob_order for p in primes), default=1)))
    if backend == "quadratic":
        return kronecker_system(params["d"])
    if backend == "cyclic":
        chi = prime_order_character(params["modulus"], params["order"],
                                    params.get("generator"))
        return cyclic_system(chi)
    if backend == "graph":
        return GraphZetaSystem(parse_graph_file(params["text"]))
    raise InvalidConfigError(f"unknown backend {backend!r}")
