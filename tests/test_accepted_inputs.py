"""The table of accepted inputs (``harness.ACCEPTED``) against the CLI and
the README: inputs drawn inside each row and just outside it either run
to finite rows or are rejected with one line naming a key."""

import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convsup.cli import main as cli_main
from convsup.harness import ACCEPTED, SCHEMES, SWEEP_VARIABLES, ScenarioSpec, SweepConfig

README = Path(__file__).resolve().parents[1] / "README.md"
_SCENARIO_KEYS = list(ScenarioSpec.__dataclass_fields__)
_CONFIG_KEYS = [k for k in SweepConfig.__dataclass_fields__ if k != "scenario"]
_SWEEP_ROWS = _CONFIG_KEYS + _SCENARIO_KEYS + ["threads"]
_VALIDATE_FLAGS = {"trials": "--trials", "n_frames": "--frames", "seed": "--seed"}
# the row a grid value goes through, per sweep variable
_SWEPT_ROW = {"snr_pu_db": "snr_db", "snr_su_db": "snr_db",
              "d12_ratio": "d12_ratio", "power_ratio": "power_ratio"}
_ANCHOR = {"snr_pu_db": "pu", "snr_su_db": "su"}


def test_every_row_is_drawn():
    assert set(_SWEEP_ROWS) | set(_VALIDATE_FLAGS) == set(ACCEPTED)


def _outside_values(name, swept):
    """Values just outside the row of ``name``, or of the wrong kind; a
    grid also gets one value on each side of ``swept``, the swept field's
    row."""
    row = ACCEPTED[name]
    if row.kind == "choice":
        return [[], [row.choices[0]] * 2, ["bogus"]] if row.items else ["bogus"]
    if row.kind == "bool":
        return ["false", 1]
    if name == "grid":  # not monotone, or not finite, or outside the swept row
        return [[], [20.0, 20.0], [math.nan], ["20"],
                [math.nextafter(swept.hi, math.inf)], [math.nextafter(swept.lo, -math.inf)]]
    integer = row.kind == "integer"
    ends = []
    if math.isfinite(row.lo):
        ends.append(row.lo if row.lo_open else
                    row.lo - 1 if integer else math.nextafter(row.lo, -math.inf))
    if math.isfinite(row.hi):
        ends.append(row.hi + 1 if integer else math.nextafter(row.hi, math.inf))
    if name == "threads":  # an integer option on the command line
        return ends
    values = ends + [row.lo + 0.5 if integer else "1", True] + ([] if integer else [math.nan])
    return [[v] for v in values] if row.items else values


def _push_outside(config, threads, name, value):
    """``config`` and ``threads`` with ``name`` set to ``value``, and the
    keys a rejection may name."""
    config = copy.deepcopy(config)
    named = {name}
    if name == "threads":
        threads = value
    elif name in config["scenario"]:
        config["scenario"][name] = value
    else:
        config[name] = value
        if name == "grid":
            named.add(_SWEPT_ROW.get(config["sweep_variable"], "grid"))
    return config, threads, named


@st.composite
def sweeps(draw):
    """(JSON config, --threads, the keys a rejection may name: none when
    every key is drawn inside).  Inside draws respect the rules between
    fields (l_su < m_subcarriers, VC indices below it, distinct and fewer
    than l_su + 1, snr_ref agreeing with an SNR sweep), so every one of
    them runs: any such VC set has an exact null space."""
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    swept = ACCEPTED[_SWEPT_ROW[variable]]
    m = draw(st.integers(2, ACCEPTED["m_subcarriers"].hi))
    l_su = draw(st.integers(0, m - 1))

    def number(name):
        row = ACCEPTED[name]
        return draw(st.floats(row.lo, row.hi, exclude_min=row.lo_open))
    scenario = {
        "d12_ratio": number("d12_ratio"),
        "d12_ref": draw(st.sampled_from(ACCEPTED["d12_ref"].choices)),
        "power_ratio": number("power_ratio"),
        "snr_db": number("snr_db"),
        "snr_ref": _ANCHOR.get(variable) or draw(st.sampled_from(ACCEPTED["snr_ref"].choices)),
        "eta": number("eta"),
        "m_subcarriers": m,
        "l_su": l_su,
        "vc_indices": draw(st.lists(st.integers(0, m - 1), unique=True, max_size=l_su)),
        "vc_power_fraction": number("vc_power_fraction"),
    }
    # the grid length and the trial count are shrunk to keep examples fast
    grid = sorted(draw(st.sets(st.floats(swept.lo, swept.hi), min_size=1, max_size=2)))
    config = {
        "sweep_variable": variable,
        "grid": grid[::-1] if draw(st.booleans()) else grid,
        "schemes": draw(st.lists(st.sampled_from(SCHEMES), unique=True, min_size=1)),
        "csit": draw(st.booleans()),
        "n_trials": draw(st.integers(ACCEPTED["n_trials"].lo, 200)),
        "seed": draw(st.integers(ACCEPTED["seed"].lo, 2 ** 70)),
        "scenario": scenario,
    }
    threads = draw(st.integers(1, 4))
    # about half of the examples push one key just outside its row
    name = draw(st.sampled_from([None] * len(_SWEEP_ROWS) + _SWEEP_ROWS))
    if name is None:
        return config, threads, set()
    value = draw(st.sampled_from(_outside_values(name, swept)))
    return _push_outside(config, threads, name, value)


@st.composite
def validates(draw):
    """(argv of a small ``validate``, the keys a rejection may name); the
    integer options carry only the integer just below a row's end."""
    values = {"trials": draw(st.integers(ACCEPTED["trials"].lo, 300)),
              "n_frames": draw(st.integers(ACCEPTED["n_frames"].lo, 3)),
              "seed": draw(st.integers(ACCEPTED["seed"].lo, 2 ** 70))}
    outside = {draw(st.sampled_from([None, *_VALIDATE_FLAGS]))} - {None}
    for name in outside:
        values[name] = ACCEPTED[name].lo - 1
    return [arg for name, value in values.items()
            for arg in (_VALIDATE_FLAGS[name], str(value))], outside


# every value of _outside_values for every row, once, on a small config
_SMALL = {"sweep_variable": "snr_pu_db", "grid": [20.0], "schemes": ["ocr"], "csit": False,
          "n_trials": 100, "seed": 0,
          "scenario": {"m_subcarriers": 16, "l_su": 5, "vc_indices": [0, 8]}}
_EXPLICIT = [_push_outside(_SMALL, 1, name, value) for name in _SWEEP_ROWS
             for value in _outside_values(name, ACCEPTED["snr_db"])]
_EXPLICIT += [([_VALIDATE_FLAGS[name], str(ACCEPTED[name].lo - 1)], {name})
              for name in _VALIDATE_FLAGS]
# inside every row: a guard band of l_su adjacent virtual subcarriers
_EXPLICIT.append(({**_SMALL, "scenario": {"m_subcarriers": 64, "l_su": 16,
                                          "vc_indices": list(range(16))}}, 1, set()))


def _with_explicit_examples(test):
    for case in _EXPLICIT:
        test = example(case)(test)
    return test


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check_rejection(rc, out, err, named):
    assert rc == 2 and out == "", err
    [line] = err.strip().splitlines()
    assert any(re.search(rf"\b{key}\b", line) for key in named), (line, named)


# about one generated example in 25 is a validate run, which takes 0.5 s
@_with_explicit_examples
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 24).flatmap(lambda k: validates() if k == 13 else sweeps()))
def test_cli_runs_or_rejects_one_key(case):
    # warnings are errors in this suite, so a run that warns fails here
    if len(case) == 2:
        argv, named = case
        rc, out, err = _run(["validate", *argv])
        if named:
            _check_rejection(rc, out, err, named)
        else:  # a check may fail at these sizes; no input is rejected
            assert rc in (0, 1) and out.rstrip().splitlines()[-1].startswith("overall:")
        return
    config, threads, named = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_path = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
        cfg_path.write_text(json.dumps(config))
        rc, out, err = _run(["sweep", "--config", str(cfg_path), "--out", str(out_path),
                             "--threads", str(threads)])
        if rc == 0:
            assert not named, named
            with open(out_path) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == len(config["grid"]) * len(config["schemes"])
            assert all(math.isfinite(float(row[k])) for row in rows for k in row
                       if k not in ("scheme", "seed"))
            return
        assert not out_path.exists()
        # an inside draw names no key, so any rejection of one fails here
        _check_rejection(rc, out, err, named)


def test_readme_lists_the_table():
    # the README's table of accepted inputs has one line per ACCEPTED row,
    # with the same wording of what it accepts
    lines = README.read_text().splitlines()
    start = lines.index("| Key | Accepts | Why |") + 2
    rows = {}
    for line in lines[start:]:
        match = re.fullmatch(r"\| `(\w+)` \| (.+?) \| .+ \|", line)
        if not match:
            break
        rows[match[1]] = match[2]
    assert rows == {name: str(row) for name, row in ACCEPTED.items()}
