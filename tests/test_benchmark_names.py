"""Every function that the benchmark's traced run measures by name exists and
is public.

The traced run wraps the functions in each ``convsup`` module's ``__all__``
(and a fixed list of methods) and reports one metric per declared name; a
name that no span carries makes it stop with "metrics not measured".  This
test reads the declared names from BENCHMARK.json, without changing it, so
that such a deletion fails here first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# rng.* is traced through a Generator subclass and trace.* describes the
# run itself; neither names a convsup function
NOT_CONVSUP = ("rng", "trace")


def _measured_callables():
    """(module, function) and (module, class, method) paths of the declared
    per-layer metrics ``<path>.<stat>``; two-part names are layer rollups."""
    with open(BENCHMARK) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    paths = {tuple(name.split(".")[:-1]) for name in names}
    return sorted(p for p in paths if len(p) >= 2 and p[0] not in NOT_CONVSUP)


def test_declared_names_cover_functions_and_methods():
    paths = _measured_callables()
    assert ("channel", "toeplitz_pair") in paths
    assert ("transceiver", "FrameSimulator", "step") in paths


@pytest.mark.parametrize("path", _measured_callables(), ids=".".join)
def test_measured_callable_is_public(path):
    module = importlib.import_module(f"convsup.{path[0]}")
    assert path[1] in module.__all__, f"{path[1]} is not in convsup.{path[0]}.__all__"
    obj = getattr(module, path[1])
    if len(path) == 3:
        assert inspect.isclass(obj)
        obj = getattr(obj, path[2])
    else:
        assert len(path) == 2
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
