"""Every definition in ``src/`` earns its place on a running path.

The walk parses ``src/hypershadow/*.py`` with ``ast``. Its roots are
``cli.py``, ``bench/*.py`` and ``demos/*.py``. A top-level definition
(function, class or assigned name) is reached by a bare or imported
name, and an attribute read off one of the package's modules
(``flows.solve_flow``) reaches the top-level definition. A method of a
top-level class other than its dunders, named ``Class.method``, is
reached by an attribute of that name. ``self.x`` or ``cls.x`` inside a
class, and ``Klass.x`` off a class of the package, reach only the
methods ``x`` of that class, its bases and its subclasses; any other
attribute reaches every method of its name. So a parameter named like a
method does not reach the method, and a method is not kept alive by a
namesake in an unrelated class. A reached definition reads what its
body reads, and module code outside any definition runs at import, so
its reads are roots too. The dunders of a class run without being
named, so they belong to the class. The roots are read generously:
their attributes, which may be read off a module under a local name,
also reach top-level definitions, and their identifier-shaped strings
(the bench tracer patches entry points by name) reach both kinds; only
a root's own ``self.x`` reaches nothing in the package. Names are
matched across modules, which can only over-count what is reached.
``__all__`` lists name nothing: they are strings in an assignment that
is never read.

A definition that no root reaches runs only under tests. Each one still
in ``src/`` is listed in ALLOWED with the ROADMAP item that will make a
run read it or delete it; the list is meant to shrink to nothing.
"""

import ast
import pathlib
import textwrap

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
    "CorrectionState.radii": 1,
    "CorrectionState.distance": 1,
    # item 6: a charge-system scenario reads the descriptors and the
    # trajectory builders, and wraps maps of one time
    "trajectory_from_descriptor": 6,
    "charge_system_from_descriptor": 6,
    "Trajectory.descriptor": 6,
    "ChargeSystem.descriptor": 6,
    "Trajectory.circular": 6,
    "Trajectory.from_callable": 6,
    "Trajectory.reflected": 6,
    "Trajectory.shifted": 6,
    "Trajectory.from_grid": 6,
    "pointwise": 6,
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _src_trees():
    return [(path.name, _parse(path)) for path in sorted(SRC.glob("*.py"))]


def _root_trees():
    roots = [SRC / "cli.py", *sorted((ROOT / "bench").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]
    return [_parse(path) for path in roots]


# the kinds of definition a read reaches
TOP, METHOD = "top", "method"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Scope:
    """What a read resolves against: the package's module names and its
    top-level classes, each with its base names and methods."""

    def __init__(self, src):
        self.modules = {"hypershadow"} | {name.rpartition(".")[0]
                                          for name, _ in src}
        self.classes = {}
        for _, tree in src:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    bases = {getattr(b, "id", getattr(b, "attr", None))
                             for b in node.bases}
                    methods = {part.name for part in node.body
                               if isinstance(part, _FUNCTIONS)
                               and not _is_dunder(part.name)}
                    self.classes[node.name] = bases, methods

    def family(self, cls):
        """``cls``, its bases and its subclasses, each transitively."""
        found = set()
        for step in (lambda c: self.classes[c][0],
                     lambda c: [k for k, (bases, _) in self.classes.items()
                                if c in bases]):
            seen, todo = set(), [cls]
            while todo:
                c = todo.pop()
                if c in self.classes and c not in seen:
                    seen.add(c)
                    todo.extend(step(c))
            found |= seen
        return found

    def methods(self, name, classes=None):
        """Keys of the methods ``name`` of ``classes``, by default of
        every class."""
        return {(METHOD, f"{c}.{name}")
                for c in (self.classes if classes is None else classes)
                if name in self.classes[c][1]}


def _reads(node, scope, cls=None, root=False):
    """Definitions a node reads, as (kind, name) keys.

    A bare or imported name reads the top-level definitions of that
    name (``TOP``). An attribute read off a module of the package reads
    the top-level definition, and one read off ``self`` or ``cls``
    inside class ``cls``, or off a class of the package, the methods of
    that name (``METHOD``, qualified ``Class.method``) of the class, its
    bases and its subclasses. Any other attribute reads every method of
    that name. A ``root`` is read generously: its attributes, which may
    be read off a module under another name, also read the top-level
    definitions, and its identifier-shaped string constants read both
    kinds; only its own ``self`` and ``cls`` reach nothing in the
    package.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add((TOP, sub.id))
        elif isinstance(sub, ast.Attribute):
            owner = getattr(sub.value, "id", getattr(sub.value, "attr", None))
            if isinstance(sub.value, ast.Name) and owner in ("self", "cls"):
                if not root:
                    out |= scope.methods(sub.attr, None if cls is None
                                         else scope.family(cls))
            elif owner in scope.classes:
                out |= scope.methods(sub.attr, scope.family(owner))
            elif root:
                out |= {(TOP, sub.attr)} | scope.methods(sub.attr)
            elif owner in scope.modules:
                out.add((TOP, sub.attr))
            else:
                out |= scope.methods(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add((TOP, sub.name.rpartition(".")[2]))
        elif (root and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str) and sub.value.isidentifier()):
            out |= {(TOP, sub.value)} | scope.methods(sub.value)
    return out


def _definitions(src, scope):
    """{(kind, name): [(qualified name, module, lines, reads)]} of the
    definitions in the (module name, tree) pairs ``src``, and the reads
    of module code outside any definition.

    Top-level functions, classes and assigned names are ``TOP``
    definitions, and every method of a top-level class but the dunders
    is a ``METHOD`` definition named ``Class.method``. A class reads its
    bases, decorators, class-level statements and dunders, which run
    without being named; its other methods read their own bodies.
    """
    defs = {}
    loose = set()

    def define(kind, name, module, node, reads):
        lines = node.end_lineno - node.lineno + 1
        defs.setdefault((kind, name), []).append((name, module, lines, reads))

    for module, tree in src:
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                define(TOP, node.name, module, node, _reads(node, scope))
            elif isinstance(node, ast.ClassDef):
                reads = set()
                for part in (*node.bases, *node.keywords,
                             *node.decorator_list, *node.body):
                    if (isinstance(part, _FUNCTIONS)
                            and not _is_dunder(part.name)):
                        define(METHOD, f"{node.name}.{part.name}", module,
                               part, _reads(part, scope, node.name))
                    else:
                        reads |= _reads(part, scope, node.name)
                define(TOP, node.name, module, node, reads)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                named = [t.id for t in targets if isinstance(t, ast.Name)]
                if named == ["__all__"]:
                    continue
                for name in named:
                    define(TOP, name, module, node, _reads(node, scope))
                if not named:
                    loose |= _reads(node, scope)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose |= _reads(node, scope)
    return defs, loose


def unreached(src=None, roots=None):
    """{qualified name: (module, lines)} of the definitions in ``src``
    (module name, tree) pairs that no root tree reaches; by default the
    package's modules and the files named in the module docstring."""
    src = _src_trees() if src is None else src
    roots = _root_trees() if roots is None else roots
    scope = _Scope(src)
    defs, loose = _definitions(src, scope)
    todo = set(loose)
    for tree in roots:
        todo |= _reads(tree, scope, root=True)
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        for _, _, _, reads in defs.get(key, ()):
            todo |= reads - seen
    out = {}
    for key, sites in defs.items():
        if key not in seen:
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
    assert "HistorySegment.has_derivative" in found
    assert "FrameTable.take" not in found
    assert not [name for name in found if name.rpartition(".")[2]
                .startswith("__")]


def test_walk_sees_through_all_lists():
    # every flows name is exported; the lemma probes still count as
    # unreached, so __all__ is not read as a reference
    assert "flow_difference_eta" in unreached()
    assert "solve_flow" not in unreached()


def test_a_read_reaches_only_definitions_of_its_kind():
    # a parameter named like a method does not reach the method, and an
    # attribute named like a function does not reach the function,
    # unless it is read off a module; a root's string reaches both kinds
    m = textwrap.dedent("""
        def build(descriptor):
            return descriptor.get("kind")

        def helper():
            return 1

        def get():
            return 2

        class Spec:
            def descriptor(self):
                return helper()

            def get(self):
                return 0
        """)
    n = "from . import m\n\ndef run():\n    return m.get()\n"
    src = [("m.py", ast.parse(m)), ("n.py", ast.parse(n))]

    def found(root):
        return set(unreached(src, [ast.parse(root)]))

    assert found("build(x)") == {"helper", "get", "run", "Spec",
                                 "Spec.descriptor"}
    assert found("run()") == {"build", "helper", "Spec", "Spec.descriptor",
                              "Spec.get"}
    assert found("patch(m, 'descriptor')") == {"build", "get", "run",
                                               "Spec", "Spec.get"}


def test_a_method_read_resolves_to_its_class_family():
    # self.x and cls.x inside a class, and Klass.x, reach the methods x
    # of that class, its bases and its subclasses, and no namesake in
    # an unrelated class; a root's own self.x reaches nothing
    m = textwrap.dedent("""
        class Base:
            def go(self):
                return self.step()

            def step(self):
                return 0

        class Child(Base):
            def step(self):
                return 1

        class Other:
            def step(self):
                return 2

            def make(cls):
                return cls.build()

            def build(self):
                return 3

        def use():
            return Other.make()
        """)
    src = [("m.py", ast.parse(m))]
    everything = {"Base", "Base.go", "Base.step", "Child", "Child.step",
                  "Other", "Other.step", "Other.make", "Other.build", "use"}

    def reached(root):
        return everything - set(unreached(src, [ast.parse(root)]))

    assert reached("x.go()") == {"Base.go", "Base.step", "Child.step"}
    assert reached("use()") == {"use", "Other", "Other.make",
                                "Other.build"}
    assert reached("Child.go(x)") == {"Child", "Base", "Base.go",
                                      "Base.step", "Child.step"}
    assert reached("self.go()") == set()
    assert reached("patch(m, 'step')") == {"Base.step", "Child.step",
                                            "Other.step"}
