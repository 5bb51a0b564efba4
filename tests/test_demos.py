"""Every demo runs to completion against the package in ``src``.

A public name removed from the package breaks a demo that still uses
it, or the benchmark tracer that wraps it by name; this catches both in
the same change.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_tracer_layers_name_package_functions():
    # perfbench/tracer.py looks each LAYERS name up with getattr at install
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for home, functions in tracer.LAYERS.items():
        module = importlib.import_module("soclerank." + home)
        missing = [name for name in functions if not callable(getattr(module, name, None))]
        assert not missing, (home, missing)
