from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pebbling


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _references(tree) -> list[str]:
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    ]


def _unread_parameters(source: str) -> list[str]:
    """Function parameters that the function's body never reads.

    `self`, `cls` and `_`-prefixed names are exempt; a read inside a nested
    function or lambda counts.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unread += [
            f"line {node.lineno}: {node.name}({arg.arg})"
            for arg in params
            if arg.arg not in read | {"self", "cls"} and not arg.arg.startswith("_")
        ]
    return unread


def _unreferenced_internals(sources: dict[str, str]) -> list[str]:
    """Private defs and UPPERCASE module constants no other code refers to.

    A function's or class's references to itself do not count, so a helper
    that only recurses into itself is reported too.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    everywhere = Counter(ref for tree in trees.values() for ref in _references(tree))
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                private = name.startswith("_") and not name.endswith("__")
                if private and everywhere[name] == _references(node).count(name):
                    unused.append(f"{module}: {name}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    if not everywhere[target.id]:
                        unused.append(f"{module}: {target.id}")
    return unused


def _from_imports(tree, top: str | None = None) -> list[str]:
    """Names of `from ... import` lines, only from package `top` if given."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and top in (None, (node.module or "").split(".")[0])
        for alias in node.names
    ]


def _unreferenced_publics(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """Public top-level functions and classes of `package`, and public methods
    of its classes (as `Class.method`), that no code refers to.

    A reference counts from any package module but `__init__.py` (re-exports
    do not count), including the names in `from ... import` lines; a def's
    references to itself do not count.  A module in `users` counts only the
    names it imports with `from pebbling... import`, so its own variables
    never stand in for a package name.
    """
    trees = {name: ast.parse(source) for name, source in {**package, **users}.items()}
    everywhere = Counter()
    for name, tree in trees.items():
        if name in users:
            everywhere.update(_from_imports(tree, "pebbling"))
        elif name != "__init__.py":
            everywhere.update(_references(tree) + _from_imports(tree))
    defs = []
    for module in package:
        if module == "__init__.py":
            continue
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (module, f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
    return [
        f"{module}: {label}"
        for module, label, node in defs
        if not node.name.startswith("_")
        and everywhere[node.name] == _references(node).count(node.name)
    ]


def test_unused_import_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from itertools import chain, combinations as comb\n"
        "print(os.sep, comb)\n"
    )
    assert _unused_imports(source) == ["line 3: sys", "line 4: chain"]


def test_package_modules_import_only_names_they_use():
    package = Path(pebbling.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unread_parameter_detector():
    source = (
        "class A:\n"
        "    def m(self, x, _y, *args, z=1, **kw):\n"
        "        return [x for _ in args]\n"
        "    @classmethod\n"
        "    def c(cls, w):\n"
        "        return lambda: w\n"
        "def f(a, b):\n"
        "    b = a\n"
    )
    assert sorted(_unread_parameters(source)) == ["line 2: m(kw)", "line 2: m(z)", "line 7: f(b)"]


def test_package_functions_read_every_parameter():
    package = Path(pebbling.__file__).parent
    unread = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unread_parameters(path.read_text(encoding="utf-8")))
    }
    assert unread == {}


def test_unreferenced_internals_detector():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "UNUSED = 4\n"
            "def _used():\n    return LIMIT\n"
            "def _recurses(n):\n    return _recurses(n - 1)\n"
            "class _Box:\n    def _method(self):\n        return self._method()\n"
        ),
        "b.py": "from a import _used\nprint(_used(), _Box)\n",
    }
    assert _unreferenced_internals(sources) == [
        "a.py: _recurses",
        "a.py: _method",
        "a.py: UNUSED",
    ]


def test_package_internals_are_all_referenced():
    package = Path(pebbling.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _unreferenced_internals(sources) == []


def test_unreferenced_publics_detector():
    package = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported():\n    return exported()\ndef helper():\n    pass\n",
        "b.py": (
            "from .a import helper\n"
            "class Used:\n"
            "    def called(self):\n        return self.called()\n"
            "    def _private(self):\n        return self.called\n"
            "    def unused(self):\n        return self.unused()\n"
            "class Unused:\n    pass\n"
        ),
    }
    users = {"bench.py": "from pebbling.b import Used\nfrom os import Unused\nUnused = Used()\n"}
    assert _unreferenced_publics(package, users) == [
        "a.py: exported",
        "b.py: Used.unused",
        "b.py: Unused",
    ]


# The reference checkers: the tests compare the engine against them, and no
# program path calls them yet.
REFERENCE_CHECKERS = {
    "apply_move": "replays move certificates one legal move at a time",
    "weight": "the exact Fraction weight that the tests check the engine's bound against",
}


def test_package_public_names_are_all_referenced():
    package = Path(pebbling.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    bench = package.parent.parent / "perfbench"
    users = {
        f"perfbench/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted(bench.glob("*.py"))
        if not path.name.startswith("test_")
    }
    # an entry leaves the list once the program calls that name
    unused = [entry.split(": ")[1] for entry in _unreferenced_publics(sources, users)]
    assert sorted(unused) == sorted(REFERENCE_CHECKERS)


# The per-instance schedulers: each turns time_cap into a fresh deadline for
# every instance it runs.  Every other time bound is a time.monotonic() deadline.
TIME_CAP_SCHEDULERS = {
    "orchestrator.run",
    "orchestrator.execute",
    "pipeline.pi_k_upper",
    "pipeline.graham_support_check",
}


def _time_caps(sources: dict[str, str]) -> list[str]:
    """Functions with a time_cap parameter and classes with a time_cap field."""
    found = []
    for name, source in sources.items():
        module = name.removesuffix(".py")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            elif isinstance(node, ast.ClassDef):
                names = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
            else:
                continue
            if "time_cap" in names:
                found.append(f"{module}.{node.name}")
    return found


def test_time_cap_detector():
    sources = {
        "a.py": (
            "class Inst:\n    time_cap: float\n    deadline: float\n"
            "def run(p, *, time_cap=None):\n    pass\n"
            "def solve(deadline):\n    time_cap = 1\n"
        ),
        "b.py": "class C:\n    def m(self, time_cap):\n        pass\n",
    }
    assert _time_caps(sources) == ["a.Inst", "a.run", "b.m"]


def test_only_the_schedulers_take_a_time_cap():
    package = Path(pebbling.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert [name for name in _time_caps(sources) if name not in TIME_CAP_SCHEDULERS] == []


# The sites that turn a time_cap into a deadline: the instance runner (each
# attempt), the product check (each factor's pi) and the CLI (whole commands).
DEADLINE_MINTERS = {"orchestrator.execute", "pipeline.graham_support_check", "cli.main"}


def _deadline_sites(sources: dict[str, str]) -> list[str]:
    """module.function of the innermost def around each deadline_in call
    (methods by their own name), or the module for a call at module level."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "deadline_in":
                    sites.append(where)
            visit(child, where)

    for name, source in sources.items():
        visit(ast.parse(source), name.removesuffix(".py"))
    return sites


def test_deadline_site_detector():
    sources = {
        "a.py": (
            "from f import deadline_in\n"
            "D = deadline_in(1)\n"
            "def run(cap):\n"
            "    def attempt():\n        return deadline_in(cap)\n"
            "    return attempt(), f.deadline_in(cap)\n"
            "def solve(deadline):\n    return deadline\n"
        ),
        "b.py": "class C:\n    def m(self, cap):\n        return [deadline_in(cap)]\n",
    }
    assert _deadline_sites(sources) == ["a", "a.attempt", "a.run", "b.m"]


def test_only_the_minters_call_deadline_in():
    package = Path(pebbling.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert [site for site in _deadline_sites(sources) if site not in DEADLINE_MINTERS] == []
