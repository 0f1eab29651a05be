"""AST scans of the package and the tests.

Every name a module imports is read somewhere in that module: a name bound
by ``import`` or ``from ... import`` must be loaded at least once, or be
listed in the module's ``__all__`` (a re-export).  ``from __future__``
imports are compiler directives and are skipped.

Every top-level function, class and constant (a name bound by a top-level
assignment) in the package is read somewhere in the package, or is listed in
an ``__all__``: a helper or table left behind when its last reader goes fails
the scan.  Likewise every method and property of a package class is read by
name somewhere in the package, so no method serves only the tests.

Every random decision in the package is a ``coin``, ``pick`` or ``born``
draw: no ``.random()`` or ``.integers(...)`` call appears outside the
classes that define those draws.

No two functions or methods in the package have the same body of two
statements or more (docstrings aside): one body serves both names instead.

An agent's photon is measured only by the round engine: the package calls
``measure_random_basis`` from ``protocol.py`` alone, so an adversary decides
what Bob declares but never measures for him.

No package object is made with ``object.__new__``, the back door past a
class's constructor: every ``StateVector`` passes its shape and norm checks.

Every ``raise`` in a configuration boundary (a config's ``__post_init__``,
the probability check, the adversary's channel rule, the session's strategy
check and the preset lookup) raises ``ConfigError``, which names the field.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "triqss").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# The classes whose bodies may read uniforms directly.
DRAW_CLASSES = {"RandomSource", "_RoundStream"}


def exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def loaded(tree: ast.AST) -> set[str]:
    """Every name the tree reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name the source never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = loaded(tree) | exported(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_the_scan_sees_both_trees():
    names = {path.name for path in FILES}
    assert {"qcore.py", "registry.py", "test_hygiene.py"} <= names


def test_the_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "numpy.linalg.norm(osp.sep)\n"
    )
    assert unused_imports(source) == ["2: os", "4: parse"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds by ``def``, ``class`` or an
    assignment; dunder names such as ``__all__`` are skipped."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
        and not (name.id.startswith("__") and name.id.endswith("__"))
    ]


def orphans(sources: dict[str, str]) -> list[str]:
    """``"module:line: name"`` for each top-level function, class or constant
    that no module of ``sources`` reads and no ``__all__`` lists."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(loaded(tree) | exported(tree) for tree in trees.values()))
    return [
        f"{module}:{node.lineno}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in top_level_names(node)
        if name not in used
    ]


def test_the_orphan_scan_flags_only_unread_definitions():
    sources = {
        "a.py": (
            "__all__ = ['Public']\n"
            "class Public: pass\n"
            "def _helper(): pass\n"
            "def _orphan(): pass\n"
        ),
        "b.py": "from a import _helper\nclass B:\n    def _orphan(self): _helper()\n",
    }
    assert orphans(sources) == ["a.py:4: _orphan", "b.py:2: B"]


def test_the_orphan_scan_flags_only_unread_constants():
    sources = {
        "a.py": (
            "__all__ = ['PUBLIC']\n"
            "PUBLIC = 1\n"
            "_TABLE: dict = {}\n"
            "_LEFT, _RIGHT = 2, 3\n"
            "_STALE: int = 4\n"
            "for _i in range(2): pass\n"
            "def f(): return _TABLE, _i\n"
        ),
        "b.py": "from a import _LEFT, f\nf(_LEFT)\n",
    }
    assert orphans(sources) == ["a.py:4: _RIGHT", "a.py:5: _STALE"]


def test_no_orphaned_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert orphans(sources) == []


def read_members(tree: ast.AST) -> set[str]:
    """Every name the tree reads as an attribute or a bare name, and every
    attribute named in a string given to ``attrgetter``."""
    read = loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and "attrgetter" in (
            getattr(node.func, "attr", None),
            getattr(node.func, "id", None),
        ):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    read.update(arg.value.split("."))
    return read


def unread_members(sources: dict[str, str]) -> list[str]:
    """``"module:line: Class.name"`` for each method or property that no
    module of ``sources`` reads by name; dunder methods are skipped, since
    Python itself calls them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_members, trees.values()))
    return [
        f"{module}:{item.lineno}: {cls.name}.{item.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read
    ]


def test_the_member_scan_flags_only_unread_methods():
    sources = {
        "a.py": (
            "from operator import attrgetter\n"
            "class Prep:\n"
            "    def __post_init__(self): pass\n"
            "    @property\n"
            "    def vector(self): return 1\n"
            "    def state(self, labels): return labels\n"
            "    def declare(self): pass\n"
            "    alias = declare\n"
            "    def encoded(self): pass\n"
            "    def orphan(self): pass\n"
            "FIELDS = attrgetter('kind', 'prep.encoded')\n"
        ),
        "b.py": "def use(prep):\n    return prep.vector, prep.alias()\n",
        "c.py": "class Other:\n    def state(self): pass\n",
    }
    assert unread_members(sources) == [
        "a.py:6: Prep.state",
        "a.py:10: Prep.orphan",
        "c.py:2: Other.state",
    ]


def test_no_unread_methods_or_properties():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_members(sources) == []


def raw_draws(source: str) -> list[str]:
    """``"line: method"`` for each ``.random()``/``.integers()`` call outside
    the bodies of ``DRAW_CLASSES``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in DRAW_CLASSES
        for node in ast.walk(cls)
    }
    return [
        f"{node.lineno}: {node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("random", "integers")
        and id(node) not in inside
    ]


def test_the_draw_scan_flags_only_calls_outside_the_draw_classes():
    source = (
        "class RandomSource:\n"
        "    def coin(self, p):\n"
        "        return self.random() < p\n"
        "def transmit(rng):\n"
        "    return rng.random() < 0.5, rng.integers(4), rng.coin(0.5)\n"
        "x = np.random.default_rng(0).random\n"
    )
    assert sorted(raw_draws(source)) == ["5: integers", "5: random"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_random_decision_is_a_named_draw(path):
    assert raw_draws(path.read_text(encoding="utf-8")) == []


def duplicate_bodies(sources: dict[str, str]) -> list[str]:
    """``"first = repeat"`` (each ``"module:line: name"``) for each function
    whose body, docstring stripped, repeats an earlier one's; bodies of one
    statement are skipped."""
    first: dict[tuple[str, ...], str] = {}
    repeats = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) < 2:
                continue
            where = f"{module}:{node.lineno}: {node.name}"
            seen = first.setdefault(tuple(map(ast.dump, body)), where)
            if seen != where:
                repeats.append(f"{seen} = {where}")
    return repeats


def test_the_body_scan_flags_only_repeated_bodies():
    sources = {
        "a.py": (
            "def f(x):\n"
            '    """Doc."""\n'
            "    y = x + 1\n"
            "    return y\n"
            "def g(x):\n"
            "    return x\n"
            "def h(x):\n"
            "    return x\n"
            "def k(x):\n"
            "    y = x + 2\n"
            "    return y\n"
        ),
        "b.py": (
            "class C:\n"
            "    def m(self, x):\n"
            '        """Other doc."""\n'
            "        y = x + 1\n"
            "        return y\n"
        ),
    }
    assert duplicate_bodies(sources) == ["a.py:1: f = b.py:2: m"]


def test_no_repeated_function_bodies():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert duplicate_bodies(sources) == []


def calls(source: str, name: str) -> list[int]:
    """The line of each call of ``name``, as a function or as a method."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name
        in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    )


def test_the_call_scan_flags_only_calls():
    source = (
        "class PhotonRegistry:\n"
        "    def measure_random_basis(self, label, bases, rng):\n"
        "        return measure_random_basis(self, label)\n"
        "measure = registry.measure_random_basis\n"
        "basis, outcome = registry.measure_random_basis('B', bases, rng)\n"
        "registry.measure('B', basis, rng)\n"
    )
    assert calls(source, "measure_random_basis") == [3, 5]


def test_only_the_round_engine_measures_an_agent_photon():
    callers = {
        path.name
        for path in PACKAGE
        if calls(path.read_text(encoding="utf-8"), "measure_random_basis")
    }
    assert callers == {"protocol.py"}


def attribute_reads(source: str, name: str) -> list[int]:
    """The line of each read of the attribute ``name``; assignments are not."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.ctx, ast.Load)
    )


def test_the_attribute_scan_flags_only_reads():
    source = (
        "rec.delivered_bob = True\n"
        "if not rec.delivered_bob:\n"
        "    delivered_bob = rec.delivered_bob_later\n"
        "rec.delivered_bob, x = False, rec.delivered_bob\n"
    )
    assert attribute_reads(source, "delivered_bob") == [2, 4]


def test_only_the_round_engine_decides_a_lost_photon():
    # The engine declares a photon that never reached Bob lost; the
    # adversary's decisions are asked only about one that did.
    source = (ROOT / "src" / "triqss" / "adversary.py").read_text(encoding="utf-8")
    assert attribute_reads(source, "delivered_bob") == []


def back_door_calls(source: str) -> list[int]:
    """The line of each ``object.__new__`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and getattr(node.func.value, "id", None) == "object"
    )


def test_the_back_door_scan_flags_only_object_new_calls():
    source = (
        "obj = object.__new__(cls)\n"
        "object.__setattr__(obj, 'labels', labels)\n"
        "inst = super().__new__(cls)\n"
        "make = object.__new__\n"
        "other = cls.__new__(cls)\n"
        "state = make(StateVector) or object.__new__(StateVector)\n"
    )
    assert back_door_calls(source) == [1, 6]


def test_no_package_object_skips_its_constructor():
    offenders = {
        path.name: lines
        for path in PACKAGE
        if (lines := back_door_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# (module, class or None, function): where a configuration value is checked.
CONFIG_BOUNDARIES = (
    ("channel.py", None, "_check_probability"),
    ("channel.py", "ChannelConfig", "__post_init__"),
    ("adversary.py", "AttackStrategy", "__post_init__"),
    ("adversary.py", "ActiveAdversary", "__init__"),
    ("protocol.py", "SessionConfig", "__post_init__"),
    ("protocol.py", None, "validate_session"),
    ("harness.py", "ExperimentConfig", "__post_init__"),
    ("harness.py", None, "preset_experiment"),
)


def non_config_raises(source: str, owner: str | None, name: str) -> list[str]:
    """``"line: exception"`` for each ``raise`` in the function ``name`` (a
    method of class ``owner``, or top-level when ``owner`` is None) that does
    not raise a ``ConfigError``; ``["missing"]`` when there is no such
    function."""
    scope = ast.parse(source).body
    if owner is not None:
        scope = next(
            (n.body for n in scope if isinstance(n, ast.ClassDef) and n.name == owner),
            [],
        )
    function = next(
        (n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name), None
    )
    if function is None:
        return ["missing"]
    found = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) != "ConfigError":
            found.append(f"{node.lineno}: {ast.unparse(exc) if exc else 'raise'}")
    return found


def test_the_raise_scan_flags_only_other_exceptions():
    source = (
        "class Config:\n"
        "    def __post_init__(self):\n"
        "        if self.x:\n"
        "            raise ConfigError('x', 'bad')\n"
        "        raise ValueError('y must be set')\n"
        "    def other(self):\n"
        "        raise ValueError('not a boundary')\n"
        "def check(value):\n"
        "    try:\n"
        "        value()\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise protocol.ConfigError('value', 'bad') from None\n"
    )
    assert non_config_raises(source, "Config", "__post_init__") == ["5: ValueError"]
    assert non_config_raises(source, None, "check") == ["12: raise"]
    assert non_config_raises(source, "Config", "check") == ["missing"]


@pytest.mark.parametrize(
    "module,owner,name",
    CONFIG_BOUNDARIES,
    ids=[".".join(p for p in entry if p) for entry in CONFIG_BOUNDARIES],
)
def test_every_configuration_boundary_raises_config_error(module, owner, name):
    source = (ROOT / "src" / "triqss" / module).read_text(encoding="utf-8")
    assert non_config_raises(source, owner, name) == []
