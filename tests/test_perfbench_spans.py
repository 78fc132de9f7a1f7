"""The benchmark's tracer wraps lingamkit functions by module attribute name
(``perfbench/spans.py``); every name it wraps must exist, or a traced run fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()
WRAPPED = sorted(
    {(module, attr) for module, attr, *_ in SPANS.SPANS}
    | {(module, attr) for module, attr, *_ in SPANS.COUNTERS}
)


@pytest.mark.parametrize("module, attr", WRAPPED)
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"lingamkit.{module}"), attr))


def test_tracer_install_swaps_and_restores_every_name():
    names = WRAPPED + [("evaluation", "ThreadPoolExecutor")]

    def current():
        return [getattr(importlib.import_module(f"lingamkit.{m}"), a) for m, a in names]

    before = current()
    with SPANS.Tracer().install():
        assert all(now is not was for now, was in zip(current(), before))
    assert all(now is was for now, was in zip(current(), before))
