"""Every function that the benchmark's traced run measures by name exists and
is public, and the validation suite is where the traced run can see it.

The traced run wraps the functions in each ``convsup`` module's ``__all__``
(and a fixed list of methods) and reports one metric per declared name; a
name that no span carries makes it stop with "metrics not measured".  This
test reads the declared names from BENCHMARK.json, without changing it, so
that such a deletion fails here first.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
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


def test_validation_is_imported_with_the_cli():
    # the traced run re-points globals only in convsup modules already
    # imported when it installs, so the checks must come in with the CLI,
    # in a fresh interpreter (this one has imported every module)
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, convsup.cli; "
         "print('convsup.validation' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])),
        capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["True"], done.stderr


def test_validation_names_resolve_from_the_package_and_left_the_harness():
    import convsup
    import convsup.harness
    import convsup.validation
    for name in convsup.validation.__all__:
        assert getattr(convsup, name) is getattr(convsup.validation, name)
    left = {"validate_suite", "CheckResult", "ValidationReport"} & set(vars(convsup.harness))
    checks = [name for name in vars(convsup.harness) if name.endswith("_check")]
    assert not left and not checks, (left, checks)
