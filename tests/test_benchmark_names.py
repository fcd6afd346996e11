"""Every function that the benchmark's traced run measures by name exists and
is public, the validation suite is where the traced run can see it, every
other public function and every hand-written method is one that the
program runs, and every dataclass field is one that the program reads.

The traced run wraps the functions in each ``convsup`` module's ``__all__``
(and a fixed list of methods) and reports one metric per declared name; a
name that no span carries makes it stop with "metrics not measured".  This
test reads the declared names from BENCHMARK.json, without changing it, so
that such a deletion fails here first.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import convsup
import convsup.cli

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


def _public_functions():
    """(module, name, function) of every function in a ``convsup`` module's
    ``__all__`` that the module defines, and (module, "Class.name", function)
    of every method, class or static method and property getter written in
    a class that the module defines.  The methods that ``dataclass``
    generates are compiled outside the module's file, and are left out."""
    for info in pkgutil.iter_modules(convsup.__path__):
        module = importlib.import_module(f"convsup.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield info.name, name, obj
        for cls_name, cls in vars(module).items():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            for name, member in vars(cls).items():
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    yield info.name, f"{cls_name}.{name}", fn


def test_methods_are_listed_and_generated_ones_left_out():
    names = {f"{module}.{name}" for module, name, _ in _public_functions()}
    assert {"spectral.VcLayout.n_sym", "harness.SweepConfig.from_json",
            "transceiver.FrameSimulator.step", "harness.Accepts.__str__"} <= names
    assert "precoding.PowerProfile.__init__" not in names
    assert "validation.CheckResult.__repr__" not in names


def test_every_public_function_runs_in_the_program(tmp_path, capsys):
    # small sweeps with and without CSIT, validate, a validate size that
    # it rejects, psi and outage through the CLI, in this interpreter under
    # a profile hook; a public function or method that none of them enters
    # serves the tests alone, and belongs in them
    config = tmp_path / "sweep.json"
    commands = []
    for csit in (True, False):
        config.write_text(json.dumps({"sweep_variable": "snr_pu_db",
                                      "grid": [10.0, 20.0], "csit": csit}))
        commands.append(["sweep", "--config", str(config), "--trials", "200",
                         "--threads", "1", "--out", str(tmp_path / f"{csit}.csv")])
    commands += [["validate", "--trials", "200", "--frames", "2"],
                 ["validate", "--seed", "-1"], ["psi", "1"], ["outage", "0.3"]]
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        # validate may fail its statistical checks at this size (exit 1)
        codes = [convsup.cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    capsys.readouterr()
    assert codes[:2] == [0, 0] and codes[2] in (0, 1) and codes[3:] == [2, 0, 0], codes
    measured = {path[:2] for path in _measured_callables() if len(path) == 2}
    unused = [f"{module}.{name}" for module, name, fn in _public_functions()
              if fn.__code__ not in entered and (module, name) not in measured]
    assert not unused, f"public or a method but run by no program path: {unused}"


# dataclass fields that no program path reads, each with its reason
UNREAD_FIELDS = {
    # the secondary transmit block, the sample-exact reference that the
    # tests hold transceiver.stx_power_mc's block energy to
    ("FrameTrace", "z2_t"),
}


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def unread_dataclass_fields(src):
    """(class, field) of every dataclass field in the modules under ``src``
    whose name no attribute load reads, nor a string constant of a function
    that calls ``getattr``."""
    fields, reads = set(), set()
    for path in sorted(Path(src).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields |= {(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "getattr" for call in ast.walk(node)):
                reads |= {const.value for const in ast.walk(node)
                          if isinstance(const, ast.Constant) and isinstance(const.value, str)}
    return {(cls, name) for cls, name in fields if name not in reads}


def test_every_dataclass_field_is_read_in_the_program():
    # a field that only tests read serves the tests alone: the program
    # computes and stores it for nothing
    unread = unread_dataclass_fields(Path(convsup.__file__).parent) - UNREAD_FIELDS
    assert not unread, f"dataclass fields read by no program path: {sorted(unread)}"
