"""Every public function and method of collinext has a caller.

A caller is a name or attribute reference in src/ or perfbench/ outside
the definition itself and outside the definitions of names that have no
caller either, so a helper reached only from dead code is dead too.  The
match is by bare name, so two methods of one name count as one: the scan
can miss a dead name, but it never flags a live one."""

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
