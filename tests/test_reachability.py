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

Parameters get the same walk. A defaulted parameter of a top-level
function or of a method of a top-level class counts as set when some
call in ``src/``, ``bench/*.py`` or ``demos/*.py`` names a definition
of that name (``__init__`` through its class name) and passes the
parameter by keyword, passes more positional arguments than its
position (``self`` and ``cls`` not counted), or unpacks ``*`` or
``**``. A ``**`` whose keys the walk reads statically sets only those
keys: a dict display, ``dict(x, k=...)``, or the result of
``check_entries`` or ``read_record`` over a module-level table or a
subscript of a dict of tables, directly or through a name bound only
to these. Matching by name can only over-count, as above. A parameter no
call sets is one only tests set; each is listed in ALLOWED_PARAMETERS
as ``name(parameter)`` with its ROADMAP item.

The same trees pin the package's layering: each module imports from
the package only the modules LAYERS lists for it, so the operator
layers never read frame code and frames and perturbations meet only in
``cli``.
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
    # the contraction probe measures kappa and the metric reads it
    "orbit_field_norms": 1,
    "_varphi_sup_estimate": 1,
    "contraction_constants": 1,
    "ContractionProbe": 1,
    "contraction_probe": 1,
    "inverse_flow_factor": 1,
    "composite_factor": 1,
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


# defaulted parameters only tests set, each tagged with the ROADMAP item
# that makes a run set it or deletes it
ALLOWED_PARAMETERS = {
    # item 1: the certificate's Z re-evaluates the constants on new
    # radii and sizes the balls a run starts in
    "contraction_constants(norms)": 1,
    "initial_state(t_radii)": 1,
    "initial_state(s_radii)": 1,
    "initial_state(u_radii)": 1,
    # item 6: a charge-system scenario mixes delayed and advanced
    # forces and holds its charges in an external field
    "assemble_charge_perturbation(mixing)": 6,
    "ChargeSystem(external)": 6,
    # item 7: a multi-delay small-delay scenario names its blocks
    "small_delay_q(blocks)": 7,
    # item 10: a sweep member starts from the member before it
    "iterate(initial)": 10,
}


# the package modules each module may import; ``cli``, the front end,
# may import any, ``__main__`` runs it, and ``__init__`` exports them all
LAYERS = {
    "funcspace": set(),
    "flows": {"funcspace"},
    "hyperbolic": {"funcspace"},
    "perturbations": {"funcspace", "flows"},
    "invariance": {"funcspace", "flows", "perturbations"},
    "electrodynamics": {"funcspace", "flows", "perturbations"},
}
_FRONT = {"cli", "__main__", "__init__"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _src_trees():
    return [(path.name, _parse(path)) for path in sorted(SRC.glob("*.py"))]


def _scripts():
    return [*sorted((ROOT / "bench").glob("*.py")),
            *sorted((ROOT / "demos").glob("*.py"))]


def _root_trees():
    return [_parse(path) for path in (SRC / "cli.py", *_scripts())]


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


def _defaulted(src):
    """(called name, key, parameter, position) of every defaulted
    parameter of a top-level function or a method of a top-level class
    in the (module name, tree) pairs ``src``. ``__init__`` is called by
    its class name and the other dunders are skipped; the key is
    ``name(parameter)`` with the class name for ``__init__`` and
    ``Class.method`` otherwise; a method's position does not count its
    ``self`` or ``cls``, and a keyword-only parameter has none."""
    defs = []
    for _, tree in src:
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                defs.append((node.name, node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for part in node.body:
                    if not isinstance(part, _FUNCTIONS):
                        continue
                    if part.name == "__init__":
                        called = key = node.name
                    elif _is_dunder(part.name):
                        continue
                    else:
                        called, key = part.name, f"{node.name}.{part.name}"
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in part.decorator_list)
                    defs.append((called, key, part, 0 if static else 1))
    out = []
    for called, key, node, skip in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            out.append((called, f"{key}({arg.arg})", arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((called, f"{key}({arg.arg})", arg.arg, None))
    return out


def _bindings(node):
    """{name: [values]} of the names the function or lambda ``node``
    binds by a plain ``name = value``; a name bound another way too (a
    parameter, a loop or ``with`` target, unpacking, an augmented
    assignment) maps to None."""
    args = node.args
    out = {arg.arg: None for arg in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs, args.vararg,
                                     args.kwarg) if arg is not None}
    plain = {id(sub.targets[0]): sub.value for sub in ast.walk(node)
             if isinstance(sub, ast.Assign) and len(sub.targets) == 1
             and isinstance(sub.targets[0], ast.Name)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            if id(sub) in plain and out.get(sub.id, []) is not None:
                out.setdefault(sub.id, []).append(plain[id(sub)])
            else:
                out[sub.id] = None
    return out


def _tables(trees):
    """{name: [values]} of the module-level ``name = value`` lines."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                out.setdefault(node.targets[0].id, []).append(node.value)
    return out


def _bound(node, scope, tables, seen=frozenset()):
    """[(value, its scope, names followed)] of ``node``: itself, or for
    a name what it is bound to in ``scope`` or else at module level
    (``tables``), by plain assignments only; None when it is bound
    otherwise, not found or followed already."""
    if not isinstance(node, ast.Name):
        return [(node, scope, seen)]
    local = node.id in scope
    values = scope[node.id] if local else tables.get(node.id)
    if not values or node.id in seen:
        return None
    out = []
    for value in values:
        more = _bound(value, scope if local else {}, tables,
                      seen | {node.id})
        if more is None:
            return None
        out += more
    return out


def _keys(node, scope, tables, seen=frozenset()):
    """The keys of the mapping ``node`` when the walk can read them
    statically, else None: a dict display, ``dict(x, k=...)``,
    ``dict.fromkeys`` of literal keys, the result of ``check_entries``
    or ``read_record`` over a table it can read, a subscript of a dict
    of tables (the union of their keys), or a name bound only to
    these."""
    if isinstance(node, ast.Name):
        bound = _bound(node, scope, tables, seen)
        return None if bound is None else _union_bound(bound, tables)
    if isinstance(node, ast.Dict):
        if not all(k is None or isinstance(k, ast.Constant)
                   and isinstance(k.value, str) for k in node.keys):
            return None
        spread = _union_bound([(v, scope, seen) for k, v in zip(
            node.keys, node.values) if k is None], tables)
        return None if spread is None else spread | {
            k.value for k in node.keys if k is not None}
    if isinstance(node, ast.Subscript):
        holders = _bound(node.value, scope, tables, seen)
        if holders is None or not all(isinstance(v, ast.Dict)
                                      and None not in v.keys
                                      for v, _, _ in holders):
            return None
        return _union_bound([(table, sc, sn) for v, sc, sn in holders
                             for table in v.values], tables)
    if not isinstance(node, ast.Call):
        return None
    func, args, kws = node.func, node.args, node.keywords
    name = getattr(func, "id", getattr(func, "attr", None))
    if isinstance(func, ast.Name) and name == "dict" and len(args) <= 1:
        spread = _union_bound([(v, scope, seen) for v in (
            *args, *(k.value for k in kws if k.arg is None))], tables)
        return None if spread is None else spread | {
            k.arg for k in kws if k.arg is not None}
    if (name == "fromkeys" and getattr(func.value, "id", None) == "dict"
            and args and isinstance(args[0], (ast.Tuple, ast.List))
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in args[0].elts)):
        return {e.value for e in args[0].elts}
    if name in ("check_entries", "read_record"):
        table = args[1] if len(args) > 1 else next(
            (k.value for k in kws if k.arg == "table"), None)
        return None if table is None else _keys(table, scope, tables, seen)
    return None


def _union_bound(bound, tables):
    """The union of the keys of the (value, scope, names followed) in
    ``bound``, or None if one is unreadable."""
    keys = set()
    for value, scope, seen in bound:
        more = _keys(value, scope, tables, seen)
        if more is None:
            return None
        keys |= more
    return keys


def _calls(trees):
    """{called name: [(positional count, keyword names, unpacks)]} of
    every call in ``trees`` whose callee is a name or an attribute. A
    ``**`` whose keys :func:`_keys` reads passes those keys as keywords;
    any other ``*`` or ``**`` unpacks."""
    tables = _tables(trees)
    calls = {}

    def visit(node, scope):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (*_FUNCTIONS, ast.Lambda)):
                visit(sub, {**scope, **_bindings(sub)})
                continue
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id",
                               getattr(sub.func, "attr", None))
                keywords = {k.arg for k in sub.keywords if k.arg is not None}
                unpacks = any(isinstance(a, ast.Starred) for a in sub.args)
                for k in sub.keywords:
                    keys = None if k.arg else _keys(k.value, scope, tables)
                    if k.arg is None and keys is None:
                        unpacks = True
                    keywords |= keys or set()
                calls.setdefault(name, []).append(
                    (len(sub.args), keywords, unpacks))
            visit(sub, scope)

    for tree in trees:
        visit(tree, {})
    return calls


def unset_parameters(src=None, trees=None):
    """Keys ``name(parameter)`` of the defaulted parameters in ``src``
    (module name, tree) pairs that no call in ``trees`` sets; by default
    the package's modules and the files named in the module
    docstring."""
    src = _src_trees() if src is None else src
    if trees is None:
        trees = [tree for _, tree in src] + [_parse(p) for p in _scripts()]
    calls = _calls(trees)
    return {key for called, key, name, pos in _defaulted(src)
            if not any(unpacks or name in keywords
                       or (pos is not None and count > pos)
                       for count, keywords, unpacks
                       in calls.get(called, ()))}


def package_imports(src=None):
    """{module: the package modules it imports} of the (module name,
    tree) pairs ``src``, by default the package's, read off every
    import statement, those inside definitions too."""
    out = {}
    for name, tree in _src_trees() if src is None else src:
        found = out[name.removesuffix(".py")] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[1] for a in node.names
                          if a.name.startswith("hypershadow.")}
                continue
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "hypershadow":
                    continue
                module = module.partition(".")[2]
            found |= ({module.partition(".")[0]} if module
                      else {a.name for a in node.names})
    return out


def test_layers_import_only_the_layers_below():
    imports = package_imports()
    assert set(imports) == set(LAYERS) | _FRONT
    wrong = {name: sorted(imports[name] - allowed)
             for name, allowed in LAYERS.items() if imports[name] - allowed}
    assert not wrong, f"imports across the layering: {wrong}"
    # frames and the operator layers meet only in the front end
    assert [name for name, used in sorted(imports.items())
            if "hyperbolic" in used and name != "__init__"] == ["cli"]


def test_import_walk_reads_every_form_of_import():
    m = textwrap.dedent("""
        import numpy
        import hypershadow.flows
        from . import funcspace
        from .hyperbolic import OdeModel
        from hypershadow import cli
        from hypershadow.invariance import iterate

        def late():
            from .perturbations import HistorySegment
        """)
    assert package_imports([("m.py", ast.parse(m))]) == {"m": {
        "flows", "funcspace", "hyperbolic", "cli", "invariance",
        "perturbations"}}


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
    assert "CorrectionState.distance" in found
    assert "FrameTable.take" not in found
    assert not [name for name in found if name.rpartition(".")[2]
                .startswith("__")]


def test_walk_sees_through_all_lists():
    # every flows name is exported; the a-priori flow factor still
    # counts as unreached, so __all__ is not read as a reference
    assert "inverse_flow_factor" in unreached()
    assert "solve_flow" not in unreached()


def test_all_lists_name_top_level_definitions():
    # an export whose definition went would otherwise go unseen, since
    # the walk does not read __all__
    stale = {}
    for module, tree in _src_trees():
        defined = set()
        exported = []
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined.update(names)
                if names == ["__all__"]:
                    exported = ast.literal_eval(node.value)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                # the package exports its modules
                defined.update(a.name for a in node.names)
        missing = [name for name in exported if name not in defined]
        if missing:
            stale[module] = missing
    assert not stale, f"__all__ names no definition: {stale}"


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


def test_only_allowlisted_parameters_are_set_only_by_tests():
    extra = unset_parameters() - set(ALLOWED_PARAMETERS)
    assert not extra, (
        "defaulted parameters only tests set; set them from a verb, a "
        f"bench workload or a demo, or make them constants: {sorted(extra)}")


def test_parameter_allowlist_names_only_unset_parameters():
    # a parameter a run adopts, or one that goes, leaves the list
    stale = set(ALLOWED_PARAMETERS) - unset_parameters()
    assert not stale, f"allowlisted but set or gone: {sorted(stale)}"


def test_a_parameter_is_set_by_keyword_position_or_unpacking():
    m = textwrap.dedent("""
        def f(a, b=1, c=2, *, d=3):
            return a

        class K:
            def __init__(self, x=0):
                self.x = x

            def go(self, y=1, z=2):
                return y

            @staticmethod
            def still(w=0):
                return w

            def __call__(self, v=0):
                return v
        """)
    src = [("m.py", ast.parse(m))]

    def unset(root):
        return unset_parameters(src, [ast.parse(root)])

    everything = {"f(b)", "f(c)", "f(d)", "K(x)", "K.go(y)", "K.go(z)",
                  "K.still(w)"}
    assert unset("f(1)") == everything
    assert unset("f(1, 2)") == everything - {"f(b)"}
    assert unset("m.f(1, d=4)") == everything - {"f(d)"}
    assert unset("f(*xs)") == everything - {"f(b)", "f(c)", "f(d)"}
    assert unset("f(1, **kw)") == everything - {"f(b)", "f(c)", "f(d)"}
    assert unset("K(5)") == everything - {"K(x)"}
    assert unset("k.go(5)") == everything - {"K.go(y)"}
    assert unset("K.still(5)") == everything - {"K.still(w)"}


def test_a_double_star_sets_the_keys_the_walk_reads():
    m = textwrap.dedent("""
        def f(a, b=1, c=2, *, d=3):
            return a

        TABLE = {"b": Entry("number"), **dict.fromkeys(("c",), Entry("x"))}
        TABLES = {"one": {"b": Entry("number")}, "two": {"d": Entry("x")}}
        """)
    src = [("m.py", ast.parse(m))]

    def unset(root):
        return unset_parameters(src, [src[0][1],
                                      ast.parse(textwrap.dedent(root))])

    everything = {"f(b)", "f(c)", "f(d)"}
    # a dict display, spreads included
    assert unset('f(1, **{"b": 2})') == everything - {"f(b)"}
    assert unset('f(1, **{"b": 2, **{"d": 4}})') == {"f(c)"}
    # dict(x, k=...)
    assert unset('f(1, **dict({"c": 3}, d=4))') == {"f(b)"}
    # the result of check_entries or read_record over a module-level
    # table, read directly or through a name
    assert unset("""
        def go(obj):
            kw = check_entries(obj, TABLE, "section")
            return f(1, **kw)
        """) == {"f(d)"}
    assert unset("""
        def go(path):
            raw = read_record(path, table=TABLE)
            return f(1, **dict(raw, d=4))
        """) == set()
    # over a subscript of a dict of tables: the union of their keys
    assert unset("""
        def go(obj, name):
            return f(1, **check_entries(obj, TABLES[name], name))
        """) == {"f(c)"}
    # any other ** sets every parameter, as before: a parameter, a
    # name bound otherwise too, a loop target, a table a parameter
    # shadows, a name read in its own binding, an unknown callee
    for root in ("""
            def go(kw):
                return f(1, **kw)
            """, """
            def go(kw):
                p = {"b": 2}
                p = dict(kw)
                return f(1, **p)
            """, """
            def go(ps):
                for p in ps:
                    f(1, **p)
            """, """
            def go(obj, TABLE):
                return f(1, **check_entries(obj, TABLE, "section"))
            """, """
            def go():
                x = dict(x, b=2)
                return f(1, **x)
            """, "f(1, **load(TABLE))"):
        assert unset(root) == set(), root
