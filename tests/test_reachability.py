"""Every definition in ``src/`` earns its place on a running path.

The walk parses ``src/hypershadow/*.py`` with ``ast``. Its roots are the
names used in ``cli.py``, ``bench/*.py`` and ``demos/*.py``: every
identifier read there, every name imported there, and every identifier
spelled as a string there (the bench tracer patches entry points by
name). A top-level definition (function, class or assigned name) of a
reached name is reached, and so is every name its body reads; module
code outside any definition runs at import, so its names are roots too.
Names are matched across modules, which can only over-count what is
reached. ``__all__`` lists name nothing: they are strings in an
assignment that is never read.

A definition that no root reaches runs only under tests. Each one still
in ``src/`` is listed in ALLOWED with the ROADMAP item that will make a
run read it or delete it; the list is meant to shrink to nothing.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypershadow"

# test-only definitions, each tagged with the ROADMAP item that adopts
# or deletes it
ALLOWED = {
    # item 1: the a-priori constants become the Z of the certificate,
    # and each probe checks one lemma constant that enters it
    "orbit_field_norms": 1,
    "_varphi_sup_estimate": 1,
    "contraction_constants": 1,
    "ContractionProbe": 1,
    "contraction_probe": 1,
    "b_difference_probe": 1,
    "varphi_difference_probe": 1,
    "inverse_flow_factor": 1,
    "composite_factor": 1,
    "flow_difference_eta": 1,
    "composite_difference_eta": 1,
    "ProbeReport": 1,
    "lipschitz_probe": 1,
    "segment_distance_c1": 1,
    # items 2 and 3: guard probes become report fields or go
    "range_defect": 2,
    "center_defect": 2,
    "taylor_remainder": 2,
    "derivative_identity_defect": 2,
    "DistortionReport": 2,
    "distortion_check": 2,
    "_pairwise_slacks": 2,
    "_PAIR_CHUNK": 2,
    "_DISTORTION_TOL": 2,
    "phi_derivative_bounds": 3,
    "_partitions": 3,
    "BundleReport": 3,
    "bundle_characterization_test": 3,
    # item 4: parameter dependence
    "mu_sensitivity": 4,
    # item 6: a charge-system scenario reads the descriptors
    "trajectory_from_descriptor": 6,
    "charge_system_from_descriptor": 6,
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(node, strings=False):
    """Identifiers a node reads: names, attributes, imported names and,
    with ``strings``, identifier-shaped string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str) and sub.value.isidentifier()):
            out.add(sub.value)
    return out


def _definitions():
    """{name: [(module, node)]} of top-level src definitions, and the
    names read by module code outside any definition."""
    defs = {}
    loose = set()
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                named = [t.id for t in targets if isinstance(t, ast.Name)]
                if named == ["__all__"]:
                    continue
                for name in named:
                    defs.setdefault(name, []).append((path.name, node))
                if not named:
                    loose |= _names(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose |= _names(node)
    return defs, loose


def unreached():
    """{name: (module, lines)} of top-level src definitions no root
    reaches."""
    defs, loose = _definitions()
    roots = [SRC / "cli.py", *sorted((ROOT / "bench").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]
    todo = set(loose)
    for path in roots:
        todo |= _names(_parse(path), strings=True)
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, node in defs.get(name, ()):
            todo |= _names(node) - seen
    return {name: (sites[0][0], sum(n.end_lineno - n.lineno + 1
                                    for _, n in sites))
            for name, sites in defs.items() if name not in seen}


def test_only_allowlisted_definitions_are_test_only():
    extra = {name: where for name, where in unreached().items()
             if name not in ALLOWED}
    assert not extra, (
        "definitions reached only from tests; call them from a verb, a "
        f"bench workload or a demo, or delete them: {sorted(extra.items())}")


def test_allowlist_names_only_unreached_definitions():
    # an adopted or deleted name leaves the list
    stale = set(ALLOWED) - set(unreached())
    assert not stale, f"allowlisted but reached or gone: {sorted(stale)}"


def test_walk_sees_through_all_lists():
    # every flows name is exported; the lemma probes still count as
    # unreached, so __all__ is not read as a reference
    assert "flow_difference_eta" in unreached()
    assert "solve_flow" not in unreached()
