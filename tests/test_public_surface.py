"""Every public function and method of collinext has a caller, and every
parameter with a default is set by one.

A caller is a name or attribute reference in src/ or perfbench/ outside
the definition itself and outside the definitions of names that have no
caller either, so a helper reached only from dead code is dead too.  The
match is by bare name, so two methods of one name count as one: the scan
can miss a dead name, but it never flags a live one.  The parameter scan
matches calls by bare name the same way."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "collinext").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Names with no caller that stay for now, each with what it waits for.
# E: the benchmark-only change that unpins names from perfbench's metrics
# and tests/test_benchmark_pins.py.
ALLOWED = {
    "extend.extend_point": "E: extend.extend_point.s and .calls metrics",
    "projgeom.ProjSpace.on_line": "E: projgeom.table_bytes.on_line metric",
    "projgeom.desargues_admissible":
        "E: projgeom.desargues_admissible.calls metric",
    "primesets.gl_order": "acceptance criterion 7 checks it",
    "ample.AmpleFamily.explicit":
        "the paper's general PGL_2-stable family; the tests build it",
}

# Defaulted parameters that no call sets and that stay for now.
PARAMS_ALLOWED = {
    "extend.extend_point.order": "E: extend_point itself waits for E",
    "extend.extend_point.diagnostics": "E: extend_point itself waits for E",
}


def _public_defs(path, tree):
    """(qualified name, node) of each public module-level function and
    each public method of a module-level class."""
    mod = path.stem
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield "%s.%s.%s" % (mod, node.name, sub.name), sub
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")):
            yield "%s.%s" % (mod, node.name), node


def _references(tree, skip):
    """Counts of the names and attributes referenced in tree, outside the
    nodes in skip."""
    out = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None:
            out[name] = out.get(name, 0) + 1
        stack.extend(ast.iter_child_nodes(node))
    return out


def uncalled(src=SRC, others=BENCH):
    """Qualified names of the public functions and methods of the modules
    src that no live code in src or others references."""
    trees = [ast.parse(p.read_text()) for p in src + others]
    defs = [d for p, t in zip(src, trees) for d in _public_defs(p, t)]
    dead = set()
    while True:
        skip = {node for q, node in defs if q in dead}
        refs = {}
        for t in trees:
            for name, n in _references(t, skip).items():
                refs[name] = refs.get(name, 0) + n
        now = set()
        for q, node in defs:
            if q in dead:
                now.add(q)
                continue
            name = q.rsplit(".", 1)[1]
            # references inside the definition itself do not count
            own = _references(node, skip).get(name, 0)
            if refs.get(name, 0) == own:
                now.add(q)
        if now == dead:
            return dead
        dead = now


def _defaulted(qual, node):
    """(parameter, position or None if keyword-only) of each parameter of
    a public function or method that has a default; the position counts
    the arguments a call passes, so a method's self is not counted."""
    a = node.args
    pos = a.posonlyargs + a.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    if qual.count(".") == 2 and not static:
        pos = pos[1:]
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos):
        if i >= first:
            yield arg.arg, i
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call, param, i):
    """Whether a call may set the parameter: by keyword, by position, or
    through *args or **kwargs."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if i is None:
        return False
    return (len(call.args) > i
            or any(isinstance(x, ast.Starred) for x in call.args))


def unset_defaults(src=SRC, others=BENCH):
    """"<qualified name>.<parameter>" of each defaulted parameter of the
    public functions and methods of the modules src that no call in src
    or others sets, calls inside the definition itself aside."""
    trees = [ast.parse(p.read_text()) for p in src + others]
    calls = {}
    for t in trees:
        for node in ast.walk(t):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    out = set()
    for p, t in zip(src, trees):
        for qual, node in _public_defs(p, t):
            own = set(ast.walk(node))
            mine = [c for c in calls.get(qual.rsplit(".", 1)[1], [])
                    if c not in own]
            for param, i in _defaulted(qual, node):
                if not any(_sets(c, param, i) for c in mine):
                    out.add("%s.%s" % (qual, param))
    return out


def test_every_default_is_set_by_a_caller():
    extra = sorted(unset_defaults() - set(PARAMS_ALLOWED))
    assert not extra, "defaulted parameters that no call in src/ or " \
        "perfbench/ sets: %s; make them constants or drop them" % extra


def test_param_allowlist_names_only_unset_defaults():
    stale = sorted(set(PARAMS_ALLOWED) - unset_defaults())
    assert not stale, "allowlisted parameters that are gone or set: %s" \
        % stale


def test_param_scan_sees_keyword_position_and_star_settings(tmp_path):
    src = ("def f(a, b=1, c=2, *, d=3, e=4, g=5):\n"
           "    return f(a, 0, 0, d=0, e=0, g=0)\n\n"
           "class K:\n"
           "    def m(self, x=1, y=2):\n        return x\n\n"
           "    @staticmethod\n"
           "    def s(x=1, y=2):\n        return x\n\n"
           "f(1, c=0)\nf(1, *(), e=0)\nK().m(0)\nK.s(0, 0)\n")
    path = tmp_path / "mod.py"
    path.write_text(src)
    # f's own call sets nothing; *() may fill b and c, c= sets c
    assert unset_defaults([path], []) == {"mod.f.d", "mod.f.g", "mod.K.m.y"}
    other = tmp_path / "other.py"
    other.write_text("from mod import f\nf(0, **{})\n")
    assert unset_defaults([path], [other]) == {"mod.K.m.y"}


def test_every_public_function_has_a_caller():
    extra = sorted(uncalled() - set(ALLOWED))
    assert not extra, "public names with no caller in src/ or perfbench/: " \
        "%s; delete them or move them into the tests" % extra


def test_allowlist_names_only_uncalled_names():
    # a name that is gone or has gained a caller leaves the list
    stale = sorted(set(ALLOWED) - uncalled())
    assert not stale, "allowlisted names that are gone or have a " \
        "caller: %s" % stale


def test_scan_finds_a_name_reached_only_from_dead_code(tmp_path):
    src = ("def live():\n    return helper()\n\n"
           "def dead():\n    return inner()\n\n"
           "def helper():\n    return 1\n\n"
           "def inner():\n    return inner()\n\n"
           "live()\n")
    path = tmp_path / "mod.py"
    path.write_text(src)
    assert uncalled([path], []) == {"mod.dead", "mod.inner"}
