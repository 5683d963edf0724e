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

The methods of a top-level class other than its dunders are definitions
of their own, named ``Class.method`` and reached when ``method`` is
read; the dunders run without being named, so they belong to the class.

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
    "HistorySegment.has_derivative": 1,
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
    "OdeModel.check_derivatives": 3,
    # item 4: parameter dependence
    "mu_sensitivity": 4,
    # item 6: a charge-system scenario reads the descriptors and the
    # trajectory builders, and wraps maps of one time
    "trajectory_from_descriptor": 6,
    "charge_system_from_descriptor": 6,
    "Trajectory.circular": 6,
    "Trajectory.from_callable": 6,
    "Trajectory.reflected": 6,
    "Trajectory.shifted": 6,
    "pointwise": 6,
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """{name: [(qualified name, module, lines, names read)]} of src
    definitions, and the names read by module code outside any
    definition.

    Top-level functions, classes and assigned names are definitions, and
    so is every method of a top-level class but the dunders, under its
    own name: ``Class.method`` is reached when ``method`` is read. A
    class reads its bases, decorators, class-level statements and
    dunders, which run without being named; its other methods read
    their own bodies.
    """
    defs = {}
    loose = set()

    def define(name, qualname, module, node, reads):
        lines = node.end_lineno - node.lineno + 1
        defs.setdefault(name, []).append((qualname, module, lines, reads))

    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(node.name, node.name, path.name, node, _names(node))
            elif isinstance(node, ast.ClassDef):
                reads = set()
                for part in (*node.bases, *node.keywords,
                             *node.decorator_list, *node.body):
                    if (isinstance(part, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not _is_dunder(part.name)):
                        define(part.name, f"{node.name}.{part.name}",
                               path.name, part, _names(part))
                    else:
                        reads |= _names(part)
                define(node.name, node.name, path.name, node, reads)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                named = [t.id for t in targets if isinstance(t, ast.Name)]
                if named == ["__all__"]:
                    continue
                for name in named:
                    define(name, name, path.name, node, _names(node))
                if not named:
                    loose |= _names(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose |= _names(node)
    return defs, loose


def unreached():
    """{qualified name: (module, lines)} of src definitions no root
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
        for _, _, _, reads in defs.get(name, ()):
            todo |= reads - seen
    out = {}
    for name, sites in defs.items():
        if name not in seen:
            for qualname, module, lines, _ in sites:
                where = out.get(qualname, (module, 0))
                out[qualname] = (where[0], where[1] + lines)
    return out


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


def test_walk_sees_methods_but_not_dunders():
    # a method only tests call is found under its class; a method a run
    # calls, and the dunders, are not
    found = unreached()
    assert "OdeModel.check_derivatives" in found
    assert "FrameTable.take" not in found
    assert not [name for name in found if name.rpartition(".")[2]
                .startswith("__")]


def test_walk_sees_through_all_lists():
    # every flows name is exported; the lemma probes still count as
    # unreached, so __all__ is not read as a reference
    assert "flow_difference_eta" in unreached()
    assert "solve_flow" not in unreached()
