"""Every input entry is declared once, in a table that README shows,
and any input, however malformed, ends in a documented exit code.

The fuzzer takes each shipped scenario (the bench workloads' and the
command-line tour's), spoils one entry at a time and runs ``cli.main``
in-process: the exit code is one of 0-4, a failure prints exactly one
line on stderr, and an exit of 1 leaves nothing behind. The same holds
for ``verify`` when one entry of ``state.json`` or one cell of a grid
CSV is spoiled.
"""

import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hypershadow import cli, hyperbolic, invariance, perturbations

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped():
    workloads = _module(ROOT / "bench" / "workloads.py")
    tour = _module(ROOT / "demos" / "cli_tour.py")
    out = {cls.name: cls(3, None).scenario(0, "out")
           for cls in (workloads.LinOracle, workloads.SddCubic,
                       workloads.FloquetSweep)}
    out["cli-tour"] = tour.scenario("out")
    return out


SHIPPED = _shipped()


def _paths(obj, path=()):
    """The path of every entry under ``obj``: keys and list items."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


ENTRIES = [(name, path) for name, scn in sorted(SHIPPED.items())
           for path in _paths(scn)]
WRONG_TYPES = ("oops", True, [1.0], {"k": 1.0}, 7.0)
SPOILS = ("wrong type", math.nan, math.inf, -math.inf, 10 ** 400,
          "negative", "missing", "extra key")


def _spoil(obj, path, spoil, wrong):
    """``obj`` with the entry at ``path`` spoiled in place."""
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    value = parent[last]
    if spoil == "missing":
        del parent[last]
    elif spoil == "extra key":
        target = value if isinstance(value, dict) else parent
        if isinstance(target, dict):
            target["unread_entry"] = 1.0
        else:
            target.append(1.0)
    elif spoil == "negative":
        parent[last] = -value if isinstance(value, (int, float)) else -1.0
    elif spoil == "wrong type":
        parent[last] = wrong if type(wrong) is not type(value) else "oops"
    else:
        parent[last] = spoil
    return obj


def _run(argv, tmp):
    """Exit code and stderr lines of ``cli.main(argv)`` run in ``tmp``."""
    err = io.StringIO()
    with contextlib.chdir(tmp), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def _holds_the_contract(code, err, tmp, inputs):
    assert code in (0, 1, 2, 3, 4)
    if code != 0:
        assert len(err) == 1, err
    if code == 1:
        assert sorted(os.listdir(tmp)) == sorted(inputs), err


class TestFuzz:
    @settings(max_examples=160)
    @given(st.sampled_from(ENTRIES), st.sampled_from(SPOILS),
           st.sampled_from(WRONG_TYPES))
    def test_a_spoiled_scenario_ends_in_a_documented_code(
            self, entry, spoil, wrong):
        name, path = entry
        scn = _spoil(copy.deepcopy(SHIPPED[name]), path, spoil, wrong)
        verb = "sweep" if isinstance(SHIPPED[name]["eps"], list) else "run"
        with tempfile.TemporaryDirectory() as tmp:
            if isinstance(scn.get("out"), str):
                scn["out"] = os.path.join(tmp, "out")
            with open(os.path.join(tmp, "scn.json"), "w") as fh:
                json.dump(scn, fh)
            code, err = _run([verb, "scn.json", "--quiet"], tmp)
            _holds_the_contract(code, err, tmp, ["scn.json"])


@pytest.mark.parametrize("frame, says", [
    ({"model": "lin-saddle", "cubic": [0.3, 0.2]},
     "frame: unknown entry 'cubic'; it takes mode, model, lambda_s, "
     "lambda_u, rotation"),
    # an absent model is lin-saddle, not the saddle its entries suggest
    ({"cubic": [0.3, 0.2]},
     "frame: unknown entry 'cubic'; it takes mode, model, lambda_s, "
     "lambda_u, rotation"),
    ({"model": "saddle-cubic"}, "frame: missing entry 'cubic'"),
    ({"model": "saddle-cubic", "cubic": None},
     "frame: missing entry 'cubic'"),
])
def test_a_frame_model_decides_its_entries(frame, says):
    scn = dict(SHIPPED["sdd-cubic"],
               frame=dict(frame, mode="analytic", lambda_s=1.0,
                          lambda_u=1.0))
    with tempfile.TemporaryDirectory() as tmp:
        scn["out"] = os.path.join(tmp, "out")
        with open(os.path.join(tmp, "scn.json"), "w") as fh:
            json.dump(scn, fh)
        code, err = _run(["run", "scn.json", "--quiet"], tmp)
        assert (code, err) == (1, [f"hypershadow: {says}"])
        assert os.listdir(tmp) == ["scn.json"]


def test_a_frame_model_names_the_saddle_it_builds():
    cubic = hyperbolic.frame_from_descriptor(SHIPPED["sdd-cubic"]["frame"])
    assert cubic.model.name == "saddle-cubic"
    assert cubic.model.params["cubic"] == [0.3, 0.2]
    # zero coefficients are still the cubic saddle the frame names
    flat = hyperbolic.frame_from_descriptor({"model": "saddle-cubic",
                                             "cubic": [0.0, 0.0]})
    assert flat.model.name == "saddle-cubic"
    assert flat.model.params["cubic"] == [0.0, 0.0]
    lin = hyperbolic.frame_from_descriptor(SHIPPED["lin-oracle"]["frame"])
    assert lin.model.name == "lin-saddle" and "cubic" not in lin.model.params


@pytest.fixture(scope="module")
def saved_state():
    """A state saved by a run of the tour's scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        scn = dict(SHIPPED["cli-tour"], out=os.path.join(tmp, "state"))
        path = os.path.join(tmp, "scn.json")
        with open(path, "w") as fh:
            json.dump(scn, fh)
        assert cli.main(["run", path, "--quiet"]) == 0
        yield scn, scn["out"]


STATE_ENTRIES = [("state.json", path) for path in _paths({
    "window": 0, "delta": 0, "interp_order": 0, "seed": 0,
    "t_radii": [0, 0, 0], "s_radii": [0] * 4, "u_radii": [0] * 4})]
CELLS = [(grid, row, col) for grid in cli._STATE_FILES
         for row in (0, 1, 60) for col in (0, 1, 2)]
CELL_SPOILS = ("abc", "nan", "inf", "-inf", "1" + "0" * 400, "-0.5", "",
               "1,2")


class TestVerifyFuzz:
    def _verify(self, saved_state, spoil_dir):
        scn, state = saved_state
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(state, os.path.join(tmp, "state"))
            spoil_dir(os.path.join(tmp, "state"))
            with open(os.path.join(tmp, "scn.json"), "w") as fh:
                json.dump(dict(scn, out=os.path.join(tmp, "out")), fh)
            code, err = _run(["verify", "scn.json", "state", "--quiet"], tmp)
            _holds_the_contract(code, err, tmp, ["scn.json", "state"])

    @settings(max_examples=40)
    @given(st.sampled_from(STATE_ENTRIES), st.sampled_from(SPOILS),
           st.sampled_from(WRONG_TYPES))
    def test_a_spoiled_state_record_ends_in_a_documented_code(
            self, saved_state, entry, spoil, wrong):
        def spoil_dir(state):
            path = os.path.join(state, "state.json")
            with open(path) as fh:
                meta = json.load(fh)
            with open(path, "w") as fh:
                json.dump(_spoil(meta, entry[1], spoil, wrong), fh)

        self._verify(saved_state, spoil_dir)

    @settings(max_examples=30)
    @given(st.sampled_from(CELLS), st.sampled_from(CELL_SPOILS))
    def test_a_spoiled_grid_cell_ends_in_a_documented_code(
            self, saved_state, cell, spoil):
        grid, row, col = cell

        def spoil_dir(state):
            path = os.path.join(state, grid + ".csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            cells = lines[1 + row].split(",")
            cells[min(col, len(cells) - 1)] = spoil
            lines[1 + row] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        self._verify(saved_state, spoil_dir)


# the README caption of each declared table
TABLES = {
    "the scenario file": cli.SCENARIO,
    "`config`": invariance.CONFIG,
    "an analytic `frame`, beside those of its `model`":
        hyperbolic.FRAMES["analytic"],
    **{f"the `{model}` model": hyperbolic.MODELS[model]
       for model in hyperbolic.FRAMES["analytic"]["model"].range},
    "a floquet `frame`": hyperbolic.FRAMES["floquet"],
    "`perturbation`": perturbations.PERTURBATION,
    **{f"the `parameters` of kind `{kind}`": table
       for kind, table in perturbations.KINDS.items()},
    "`state.json`": cli.STATE,
}


def _row(name, entry):
    """An entry as README shows it: name, kind, range and default."""
    rng, default = entry.range, entry.default
    if rng is None:
        shown = ""
    elif entry.kind == "list":
        shown = " x ".join(str(n or "n") for n in rng)
    elif entry.kind == "string":
        shown = ", ".join(rng)
    else:
        shown = rng if isinstance(rng, str) else f"at least {rng}"
    if not isinstance(default, str):
        default = "none" if default is None else json.dumps(default)
    return [name, entry.kind, shown, default]


def test_readme_lists_the_declared_entries():
    text = (ROOT / "README.md").read_text()
    shown = {caption: [[cell.strip().strip("`")
                        for cell in line.strip("|").split("|")]
                       for line in body.splitlines()[2:]]
             for caption, body in re.findall(
                 r"^Entries of (.+):\n\n((?:\|.*\n)+)", text, re.M)}
    assert sorted(shown) == sorted(TABLES)
    for caption, table in TABLES.items():
        assert shown[caption] == [_row(name, entry)
                                  for name, entry in table.items()], caption
    # an analytic frame holds its model's entries beside its own, and
    # the floquet model has none
    for model in hyperbolic.FRAMES["analytic"]["model"].range:
        assert not hyperbolic.MODELS[model].keys() \
            & hyperbolic.FRAMES["analytic"].keys()
    assert hyperbolic.MODELS["planar-limit-cycle"] == {}
