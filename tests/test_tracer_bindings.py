"""The benchmark tracer (bench/tracer.py) still finds every function it
wraps, bound in exactly the modules it expects.

`Tracer.install` raises `TraceBindingError` when a traced function has
gone, moved or gained a binding elsewhere; the benchmark would then stop.
Checking it here keeps a refactor that moves a binding from going
unnoticed until the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_find_every_binding():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(span_cap=0)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    tracer_module.assert_untraced()
