"""Package-level guards: a numpy-only CLI import and the names the
benchmark tracer wraps."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _modules_after_cli_import() -> list[str]:
    code = "import sys, partialzeta.cli; print(*sorted(sys.modules))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path}).stdout.split()


def test_cli_import_loads_no_scipy():
    assert [m for m in _modules_after_cli_import()
            if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_pool_or_logging():
    # the kernel's threads come from `threading`; importing
    # concurrent.futures alone took about 6 ms (`python -X importtime`,
    # 2-vCPU host), which every CLI run would pay
    banned = ("concurrent.futures", "multiprocessing", "logging")
    assert [m for m in _modules_after_cli_import()
            if m in banned or m.startswith(tuple(b + "." for b in banned))] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()


TRACED_FUNCTIONS = TRACER.FUNCTIONS + [
    ("numberfield.g", "partialzeta.numberfield", "g_closed_form")]


@pytest.mark.parametrize("name,module,path", TRACED_FUNCTIONS,
                         ids=[f[0] for f in TRACED_FUNCTIONS])
def test_traced_function_resolves(name, module, path):
    importlib.import_module(module)
    fn, _ = TRACER._resolve(module, path)
    assert callable(fn)


@pytest.mark.parametrize("name", sorted(TRACER.CLASS_OPS))
def test_traced_class_ops_resolve(name):
    module, cls_name, methods = TRACER.CLASS_OPS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    assert [m for m in methods if m not in cls.__dict__] == []
