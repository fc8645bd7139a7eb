"""Every name a typeflow module imports is used in that module, every
module-level private function or class is used somewhere in the package,
every public one without a caller in the package is on a short list,
every dataclass field is read as an attribute in the package or its tests,
every function parameter is read in its body,
only tables that are groups by construction skip the group checks,
only `groups` builds a cyclic group's table,
only the `Limit` constructor writes the table of interned limit points,
only the constructor and the level-point kernels read it, only the
constructor and `limit_points` write a point's circle, and the oracle
imports none of the modules it certifies.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "typeflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_guard_sees_an_unused_import():
    source = "from .groups import BackendMismatch, FiniteGroup\nimport os\n\nx = FiniteGroup\n"
    assert unused_imports(source) == ["BackendMismatch (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes named with one leading underscore
    that no module of `sources` (file name -> source) mentions, as a name
    or an attribute. An imported private name counts once it is used, which
    the import check above requires."""
    defined, used = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append(f"{name}:{node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [d for d in defined if d.split(":")[1] not in used]


def test_the_guard_sees_an_unused_private_function():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _unused():\n    pass\n\n\nclass _Lonely:\n    pass\n\n\nclass _Held:\n    pass\n",
        "b.py": "from . import a\nfrom .a import _used\n\n\ndef public():\n    def _nested():\n        pass\n    return _used, a._Held\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_unused", "a.py:_Lonely"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level public functions and classes that no code of `sources`
    mentions, as a name or an attribute, outside their own definition."""
    defined, uses = [], []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("_"):
                    defined.append((name, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    uses.append((name, owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    uses.append((name, owner, sub.attr))
    return sorted(
        f"{name}:{d}"
        for name, d in defined
        if not any(used == d and (where, owner) != (name, d) for where, owner, used in uses)
    )


def test_the_guard_sees_an_unused_public_function():
    sources = {
        "a.py": (
            "def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
            "class Lonely:\n    def make(self):\n        return Lonely()\n\n\ndef _private():\n    pass\n"
        ),
        "b.py": "from . import a\n\n\ndef caller():\n    return a.used()\n",
    }
    assert unreferenced_public_names(sources) == ["a.py:Lonely", "a.py:recursive", "b.py:caller"]


# Public names that only tests and the package exports use: serialisers kept
# beside their readers, oracles and reference checks that tests compare the
# fast paths against, and level-tower checks that no task runs yet. A name
# leaves this list once code in the package calls it.
TEST_ONLY_PUBLIC_NAMES = [
    "amenability.py:pushforward_measure",
    "compactify.py:finite_quotient",
    "defsets.py:translates_cover",
    "flows.py:flow_to_json",
    "groups.py:group_to_json",
    "oracle.py:oracle_equivariant_maps",
    "oracle.py:oracle_equivariant_maps_brute",
    "typespace.py:is_closed_invariant",
]


def test_every_public_name_without_a_caller_is_listed():
    # the package's re-exports in __init__.py are not callers
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_public_names(sources) == TEST_ONLY_PUBLIC_NAMES


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """"file:Class.field" for each field of a `@dataclass` in `sources`
    whose name no code of `sources` or `readers` loads as an attribute,
    sorted.

    Fields are matched by name alone, so a field is listed only when no
    attribute of its name is read anywhere: `AmbitMorphism.level` would
    pass on the reads of `ExtendedMap.level`. Reads through `==`, `hash`
    or `repr`, which every field takes part in, are not counted.
    """
    fields, loaded = [], set()
    for name, source in {**sources, **readers}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif name in sources and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [
                    (name, node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return sorted(f"{name}:{cls}.{field}" for name, cls, field in fields if field not in loaded)


def test_the_guard_sees_an_unread_dataclass_field():
    sources = {
        "a.py": (
            "@dataclass(frozen=True)\nclass Pair:\n    left: int\n    right: int\n    note: str = ''\n\n\n"
            "@dataclasses.dataclass\nclass Box:\n    item: object\n\n\n"
            "class Plain:\n    hidden: int\n\n\n"
            "def make(p):\n    p.note = 'set, not read'\n    return p.left\n"
        ),
    }
    readers = {"test_a.py": "def test_box(box):\n    assert box.item\n"}
    assert unread_dataclass_fields(sources, readers) == ["a.py:Pair.note", "a.py:Pair.right"]


def test_every_dataclass_field_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    tests = pathlib.Path(__file__).resolve().parent
    readers = {p.name: p.read_text(encoding="utf-8") for p in tests.glob("*.py")}
    assert unread_dataclass_fields(sources, readers) == []


def _only_raises_not_implemented(node: ast.FunctionDef) -> bool:
    """Is the body, after any docstring, one `raise NotImplementedError`?"""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """"file:function.parameter" for each parameter of a `def` in `sources`
    that its body never loads as a name, nested functions and lambdas
    included, sorted.

    `self` and `cls` are exempt, as are bodies that only raise
    `NotImplementedError` (an interface method) and the `cli._task_*`
    handlers, which share one signature because `TASKS` dispatches them
    alike.
    """
    out = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _only_raises_not_implemented(node):
                continue
            if name == "cli.py" and node.name.startswith("_task_"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            loaded = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            out += [f"{name}:{node.name}.{p}" for p in params if p not in loaded and p not in ("self", "cls")]
    return sorted(out)


def test_the_guard_sees_an_unread_parameter():
    sources = {
        "a.py": (
            "def area(ctx, w, h, *, unit=None, **extra):\n    return w * h\n\n\n"
            "def outer(f, x):\n    def inner(y):\n        return f(x)\n    return inner\n\n\n"
            "class Shape:\n    def scale(self, k):\n        pass\n\n"
            "    @classmethod\n    def make(cls, spec):\n        return spec\n\n"
            "    def contains(self, p):\n        \"\"\"Interface.\"\"\"\n        raise NotImplementedError\n"
        ),
        "cli.py": "def _task_star(ctx, level, params, opts):\n    return params\n\n\ndef helper(ctx, level):\n    return ctx\n",
    }
    assert unread_parameters(sources) == [
        "a.py:area.ctx",
        "a.py:area.extra",
        "a.py:area.unit",
        "a.py:inner.y",
        "a.py:scale.k",
        "cli.py:helper.level",
    ]


def test_every_parameter_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_parameters(sources) == []


def enclosing_functions(sources: dict[str, str], matches) -> list[str]:
    """Where a node satisfying ``matches`` occurs: "file:function" for the
    innermost enclosing function, "file:<module>" outside any. Sorted."""
    found = set()

    def visit(node, name, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif matches(node):
            found.add(f"{name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, name, where)

    for name, source in sources.items():
        visit(ast.parse(source), name, "<module>")
    return sorted(found)


def by_construction_callers(sources: dict[str, str]) -> list[str]:
    """Where ``_by_construction``, the constructor that skips the group-axiom
    checks, is mentioned as a name or an attribute."""
    return enclosing_functions(
        sources, lambda node: getattr(node, "attr", getattr(node, "id", None)) == "_by_construction"
    )


def test_the_guard_sees_every_caller_of_the_unchecked_constructor():
    sources = {
        "a.py": "def cyclic_group(n):\n    return FiniteGroup._by_construction(t, i, 'c')\n",
        "b.py": (
            "def from_input(t):\n    make = FiniteGroup._by_construction\n    return make(t, i, 'x')\n\n\n"
            "G = FiniteGroup._by_construction(t, i, 'y')\n"
        ),
    }
    assert by_construction_callers(sources) == ["a.py:cyclic_group", "b.py:<module>", "b.py:from_input"]


def test_only_tables_built_as_groups_skip_the_group_checks():
    # a table read from input must always go through FiniteGroup.__init__
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert by_construction_callers(sources) == ["compactify.py:finite_quotient", "groups.py:cyclic_group"]


def cyclic_group_mentions(sources: dict[str, str]) -> list[str]:
    """Where ``cyclic_group``, which builds an n x n table, is mentioned as
    a name or an attribute (an import is not a mention)."""
    return enclosing_functions(
        sources, lambda node: getattr(node, "attr", getattr(node, "id", None)) == "cyclic_group"
    )


def test_the_guard_sees_every_use_of_cyclic_group():
    sources = {
        "a.py": "from .groups import cyclic_group\n\n\ndef f(n):\n    return cyclic_group(n)\n",
        "b.py": "from . import groups\n\nmake = groups.cyclic_group\n",
    }
    assert cyclic_group_mentions(sources) == ["a.py:f", "b.py:<module>"]


def test_only_groups_builds_cyclic_tables():
    # Z/n from task input is computed mod n; a cyclic table is built only
    # for a finite backend that a scenario names
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert {where.split(":")[0] for where in cyclic_group_mentions(sources)} == {"groups.py"}


MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def _names_the_table(node) -> bool:
    return getattr(node, "attr", getattr(node, "id", None)) == "_LIMITS"


def _writes_limits(node) -> bool:
    """An assignment or deletion of ``_LIMITS`` or of one of its entries, a
    call of one of its mutating methods, or any ``object.__new__`` call,
    which could build a limit point that skips the checks and the table."""
    if isinstance(node, (ast.Name, ast.Attribute)) and _names_the_table(node):
        return isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Subscript) and _names_the_table(node.value):
        return isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        if node.func.attr in MUTATORS and _names_the_table(owner):
            return True
        return node.func.attr == "__new__" and isinstance(owner, ast.Name) and owner.id == "object"
    return False


def limit_table_writers(sources: dict[str, str]) -> list[str]:
    return enclosing_functions(sources, _writes_limits)


def test_the_guard_sees_a_stray_write_to_the_intern_table():
    sources = {
        "a.py": "point = _LIMITS.get(key)\n",
        "b.py": (
            "def forge(s, r, m):\n    p = object.__new__(Limit)\n    return p\n\n\n"
            "def seed(p):\n    typespace._LIMITS[(1, 0, 6)] = p\n\n\n"
            "def wipe():\n    _LIMITS.clear()\n\n\n"
            "def rebind():\n    global _LIMITS\n    del _LIMITS\n"
        ),
    }
    assert limit_table_writers(sources) == ["b.py:forge", "b.py:rebind", "b.py:seed", "b.py:wipe"]


def test_only_the_limit_constructor_writes_the_intern_table():
    # every other module reads the table or calls Limit(...), which validates
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert limit_table_writers(sources) == ["typespace.py:<module>", "typespace.py:__new__"]


SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _writes_circle(node) -> bool:
    """An assignment or deletion of a point's ``_circle``, or a call of
    ``setattr``, ``delattr`` or a ``__setattr__``/``__delattr__`` that names
    it by string."""
    if isinstance(node, ast.Attribute) and node.attr == "_circle":
        return isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call):
        called = getattr(node.func, "attr", getattr(node.func, "id", None))
        return called in SETTERS and any(
            isinstance(arg, ast.Constant) and arg.value == "_circle" for arg in node.args
        )
    return False


def circle_writers(sources: dict[str, str]) -> list[str]:
    return enclosing_functions(sources, _writes_circle)


def test_the_guard_sees_a_stray_write_to_a_circle():
    sources = {
        "a.py": "def step(p, g):\n    return p._circle[(p.residue + g) % p.modulus]\n",
        "b.py": (
            "def seed(p, c):\n    p._circle = c\n\n\n"
            "def forget(p):\n    del p._circle\n\n\n"
            "def poke(p, c):\n    setattr(p, '_circle', c)\n\n\n"
            "def force(p, c):\n    object.__setattr__(p, '_circle', c)\n"
        ),
    }
    assert circle_writers(sources) == ["b.py:force", "b.py:forget", "b.py:poke", "b.py:seed"]


def test_only_the_limit_constructor_and_limit_points_write_a_circle():
    # a circle must hold the point's own sign circle, residues ascending
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert circle_writers(sources) == ["typespace.py:__new__", "typespace.py:limit_points"]


# the table and the name of its bound get, so that a kernel reading the
# table through an alias of `_LIMITS.get` is seen too
TABLE_NAMES = {"_LIMITS", "_interned"}


def _reads_limits(node) -> bool:
    """A mention of the table or of its bound get, as a name, an attribute
    or an imported name, other than a write."""
    if isinstance(node, ast.alias):
        return node.name in TABLE_NAMES
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return name in TABLE_NAMES and isinstance(node.ctx, ast.Load)
    return False


def limit_table_readers(sources: dict[str, str]) -> list[str]:
    return enclosing_functions(sources, _reads_limits)


def test_the_guard_sees_a_stray_read_of_the_intern_table():
    sources = {
        "a.py": "_LIMITS: dict = {}\n_interned = _LIMITS.get\n",
        "b.py": (
            "from .a import _interned as find\n\n\n"
            "def peek(k):\n    return typespace._LIMITS.get(k)\n\n\n"
            "def size():\n    return len(_LIMITS)\n\n\n"
            "def lookup(k):\n    return _interned(k)\n\n\n"
            "def build(s, r, m):\n    return Limit(s, r, m)\n"
        ),
    }
    assert limit_table_readers(sources) == ["a.py:<module>", "b.py:<module>", "b.py:lookup", "b.py:peek", "b.py:size"]


def test_only_the_limit_constructor_reads_the_intern_table():
    # a kernel indexes a point's circle or calls Limit(...), so how the
    # table is written need hold only for the constructor
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert limit_table_readers(sources) == ["typespace.py:__new__"]


# the modules whose answers oracle.py cross-checks; it may share only
# membership and the type-space basics with them
CERTIFIED = {"amenability", "compactify", "defsets", "ellis", "flows"}


def certified_imports(source: str) -> list[str]:
    """The modules of CERTIFIED that `source` imports, in any import form,
    sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        paths = []
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            paths = [base] + [f"{base}.{alias.name}" for alias in node.names]
        for path in paths:
            found.update(part for part in path.split(".") if part in CERTIFIED)
    return sorted(found)


def test_the_guard_sees_an_import_of_a_certified_module():
    source = (
        "from .flows import minimal_subflows\nfrom . import ellis\nimport typeflow.amenability\n"
        "from typeflow import compactify as c\nfrom .typespace import Limit\nfrom .groups import Group\n"
    )
    assert certified_imports(source) == ["amenability", "compactify", "ellis", "flows"]
    assert certified_imports("from typeflow.defsets import member\n") == ["defsets"]


def test_the_oracle_imports_no_module_it_certifies():
    assert CERTIFIED <= {p.stem for p in MODULES}
    assert certified_imports((PACKAGE / "oracle.py").read_text(encoding="utf-8")) == []
