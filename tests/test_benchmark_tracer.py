"""The benchmark's tracer finds every veridyn name it wraps.

perfbench/tracer.py wraps veridyn functions and methods by name, and a
name that moves or goes makes the traced benchmark run fail.  install()
patches only the veridyn modules already imported, and veridyn.cli loads
dynamics and cascade only in the commands that run them, hence the
imports.
"""

import importlib.util
from pathlib import Path

import veridyn.cascade  # noqa: F401
import veridyn.cli  # noqa: F401
import veridyn.dynamics  # noqa: F401

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
