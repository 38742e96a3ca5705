"""The names that the scan benchmark's tracer wraps still exist and are called.

``perfbench/tracer.py`` wraps module attributes by name and reports a name
that is gone as ``missing`` instead of failing, so a renamed function would
only show up as a null metric in a traced benchmark run. This test runs the
tracer over a fixture scan with both engines and fails at once instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from tfsustain.scanner import scan

from conftest import FIXTURES

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_recorded_by_a_fixture_scan():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for engine in ("ast", "pattern"):
            scan(FIXTURES, engine=engine)
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    assert tracer.wrapped - {span.name for span in tracer.spans} == set()
