"""Every module-level function, class and upper-case constant of the
package, every method and property of its classes other than the dunders,
every attribute its classes set on `self` and every field of its
dataclasses has a use outside the tests, and every defaulted parameter of
its functions and methods is set there.

A name is used when code other than its own definition mentions it: a
package module, a demo, a tool, or the benchmark, whose binding tables name
package attributes in strings. An attribute set on `self` or a dataclass
field is used only where code reads it as an attribute (`obj.name`) or a
dotted string names it: a bare local name of the same spelling is not a
read. A dataclass serialized whole reads every field: its own code reads
`self.__dict__`, or it is passed to `fields` or `asdict`, directly or
through a helper that passes its parameter on to one of them. A defaulted
parameter is set when a call to a function of its name passes it by
keyword, or by position (after `self` or `cls` for a method). Test files do
not count, so a helper, a field or a default that only tests use is
caught, as is one that a deletion left behind. The scans match by name, so
a same-named attribute or function elsewhere also counts as a use: they can
miss a dead name, but never report a live one.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(tree: ast.Module) -> dict[str, tuple[str, ast.stmt]]:
    """Qualified name -> (bare name, node) for the module-level defs, classes
    and upper-case constants, and for each class's non-dunder methods and
    properties (`Class.name`)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            names[node.name] = (node.name, node)
        if isinstance(node, ast.ClassDef):
            names.update(
                (f"{node.name}.{item.name}", (item.name, item))
                for item in node.body
                if isinstance(item, _FUNCTIONS)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                (t.id, (t.id, node)) for t in targets if isinstance(t, ast.Name) and t.id.isupper()
            )
    return names


def _mentions(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names and attributes `tree` mentions outside the `skip` subtree; with
    `strings`, also the dotted identifiers of its string constants."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(part for part in node.value.split(".") if part.isidentifier())
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unused(package: dict[str, str], outside: list[str]) -> list[str]:
    """`module.name` (or `module.Class.name`) for each defined name no other
    code mentions.

    `package` maps module names to their source; `outside` holds the
    sources of the demos and the benchmark.
    """
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    mentioned = set()
    for src in outside:
        mentioned |= _mentions(ast.parse(src), strings=True)
    unused = []
    for mod, tree in trees.items():
        elsewhere = mentioned.union(
            *(_mentions(t) for m, t in trees.items() if m != mod)
        )
        for qualified, (name, node) in _defined(tree).items():
            if name not in elsewhere and name not in _mentions(tree, skip=node):
                unused.append(f"{mod}.{qualified}")
    return sorted(unused)


def _self_attributes(tree: ast.Module) -> dict[str, str]:
    """`Class.name` -> name for each attribute a module-level class's code
    assigns on `self` (plain, annotated, augmented or unpacked)."""
    found = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self":
                found[f"{cls.name}.{node.attr}"] = node.attr
    return found


def _attribute_reads(tree: ast.AST, strings: bool = False) -> set[str]:
    """The attributes `tree` reads (`obj.name`); with `strings`, also the
    identifiers of its dotted string constants (`'Class.name'`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "." in node.value):
            found.update(part for part in node.value.split(".") if part.isidentifier())
    return found


def _unread_attributes(package: dict[str, str], outside: list[str]) -> list[str]:
    """`module.Class.name` for each attribute set on `self` that no package
    module, demo or benchmark source reads as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    read = set().union(*(_attribute_reads(t) for t in trees.values()),
                       *(_attribute_reads(ast.parse(src), strings=True) for src in outside))
    return sorted(
        f"{mod}.{qualified}"
        for mod, tree in trees.items()
        for qualified, name in _self_attributes(tree).items()
        if name not in read
    )


def _decorator_name(node: ast.expr) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _dataclass_fields(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """`Class.name` -> (class, name) for each annotated field of a
    module-level dataclass."""
    return {
        f"{cls.name}.{item.target.id}": (cls.name, item.target.id)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in cls.decorator_list)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _callee(call: ast.Call) -> str | None:
    """The name a call calls: `f` in `f(...)` and `obj.f(...)`."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _serialized(trees: list[ast.Module]) -> set[str]:
    """The classes serialized whole: those whose own code reads
    `self.__dict__`, and those named as the argument of `fields` or
    `asdict`, or at a position where a helper passes its parameter on to a
    serializer."""
    whole = {
        cls.name
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(node, ast.Attribute) and node.attr == "__dict__"
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                for node in ast.walk(cls))
    }
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    functions = [node for tree in trees for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]
    serializers = {"fields": {0}, "asdict": {0}}  # name -> positions of the class
    grown = True
    while grown:
        grown = False
        for fn in functions:
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
                for i in serializers.get(_callee(call), ()):
                    arg = call.args[i] if i < len(call.args) else None
                    if isinstance(arg, ast.Name) and arg.id in params:
                        at = params.index(arg.id)
                        grown |= at not in serializers.setdefault(fn.name, set())
                        serializers[fn.name].add(at)
    for call in calls:
        for i in serializers.get(_callee(call), ()):
            if i < len(call.args) and isinstance(call.args[i], ast.Name):
                whole.add(call.args[i].id)
    return whole


def _unread_fields(package: dict[str, str], outside: list[str]) -> list[str]:
    """`module.Class.name` for each dataclass field that no package module,
    demo, tool or benchmark source reads, and whose class is not serialized
    whole."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    others = [ast.parse(src) for src in outside]
    read = set().union(*(_attribute_reads(t) for t in trees.values()),
                       *(_attribute_reads(t, strings=True) for t in others))
    whole = _serialized([*trees.values(), *others])
    return sorted(
        f"{mod}.{qualified}"
        for mod, tree in trees.items()
        for qualified, (cls, name) in _dataclass_fields(tree).items()
        if cls not in whole and name not in read
    )


def _defaulted_parameters(tree: ast.Module) -> dict[str, tuple[str, list[tuple[str, int | None]]]]:
    """`function` or `Class.method` -> (its name, [(parameter, position)])
    for each module-level function and non-dunder method with defaulted
    parameters. The position is the one a call passes the parameter at,
    after `self` or `cls` for a method; None for a keyword-only one."""
    functions = [("", node) for node in tree.body if isinstance(node, _FUNCTIONS)]
    functions += [
        (f"{cls.name}.", item)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, _FUNCTIONS)
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]
    found = {}
    for prefix, fn in functions:
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        bound = int(bool(prefix) and positional[:1] in (["self"], ["cls"]))
        defaulted = [(name, i - bound) for i, name in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        if defaulted:
            found[prefix + fn.name] = (fn.name, defaulted)
    return found


def _unset_defaults(package: dict[str, str], outside: list[str]) -> list[str]:
    """`module.function(name, ...)` listing each defaulted parameter that no
    call in a package module, demo, tool or benchmark source passes."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    passed: dict[str, tuple[int, set[str]]] = {}  # callee -> (most positional, keywords)
    for tree in [*trees.values(), *(ast.parse(src) for src in outside)]:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            n = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            names = {k.arg for k in call.keywords}  # None stands for a `**` mapping
            most, keywords = passed.get(callee := _callee(call), (0, set()))
            passed[callee] = (max(most, n), keywords | names)
    unset = []
    for mod, tree in trees.items():
        for qualified, (name, params) in _defaulted_parameters(tree).items():
            most, keywords = passed.get(name, (0, set()))
            dead = [p for p, at in params
                    if None not in keywords and p not in keywords
                    and (at is None or most <= at)]
            if dead:
                unset.append(f"{mod}.{qualified}({', '.join(dead)})")
    return sorted(unset)


def _sources(*dirs: str) -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for d in dirs
        for path in sorted((ROOT / d).glob("*.py"))
    }


def _package_and_outside() -> tuple[dict[str, str], list[str]]:
    """The package's module sources, and every other source that counts as
    a use: the demos, the tools and the benchmark."""
    return _sources("src/policyprune"), [
        src for d in ("demos", "tools", "perfbench") for src in _sources(d).values()
    ]


def test_every_package_name_has_a_use_outside_the_tests():
    assert _unused(*_package_and_outside()) == []


def test_every_instance_attribute_is_read_outside_the_tests():
    assert _unread_attributes(*_package_and_outside()) == []


def test_every_dataclass_field_is_read_outside_the_tests():
    assert _unread_fields(*_package_and_outside()) == []


def test_every_defaulted_parameter_is_set_outside_the_tests():
    assert _unset_defaults(*_package_and_outside()) == []


def test_a_name_only_tests_use_is_caught():
    package = {
        "a": (
            "def used():\n    return LIMIT\n"
            "def only_tests():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "LIMIT = 3\nTRACED = 4\n_lower_case = 5\n"
        ),
        "b": "from .a import only_tests\nfrom .a import used\nused()\n",
    }
    bench = "TABLE = {'layer': [('a', 'TRACED')]}\n"
    assert _unused(package, [bench]) == ["a.only_tests", "a.recursive"]


def test_a_method_only_tests_use_is_caught():
    package = {
        "a": (
            "class Box:\n"
            "    def __init__(self):\n        self.n = self.size\n"
            "    def used(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    def only_tests(self):\n        pass\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    @property\n    def traced(self):\n        return 2\n"
            "    @property\n    def unread(self):\n        return 3\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": "from .a import Box\nBox().used()\n",
    }
    bench = "TABLE = {'layer': [('a', 'Box.traced')]}\n"
    assert _unused(package, [bench]) == ["a.Box.only_tests", "a.Box.unread"]


def test_an_attribute_only_tests_read_is_caught():
    package = {
        "a": (
            "class Box:\n"
            "    def __init__(self, n):\n"
            "        self.n = n\n"
            "        self.pair, self.shadowed = n, n\n"
            "        self.bumped: int = 0\n"
            "        self.traced = self.named = self.unread = n\n"
            "    def size(self):\n"
            "        shadowed = self.n\n"
            "        self.bumped += 1\n"
            "        return shadowed + self.pair\n"
        ),
        "b": "from .a import Box\nBox(1).size()\n",
    }
    # a dotted binding string reads its attribute; a bare string does not
    bench = "TABLE = {'layer': [('a', 'Box.traced')]}\nNAMES = ['named']\n"
    assert _unread_attributes(package, [bench]) == [
        "a.Box.bumped", "a.Box.named", "a.Box.shadowed", "a.Box.unread",
    ]


def test_a_field_only_tests_read_is_caught():
    package = {
        "a": (
            "from dataclasses import dataclass, fields\n"
            "@dataclass\nclass Row:\n"
            "    used: int\n    traced: int\n    unread: int\n    shadowed: int = 0\n"
            "    def total(self):\n"
            "        shadowed = 1\n"
            "        return self.used + shadowed\n"
            "@dataclass(frozen=True)\nclass Header:\n"
            "    kind: str\n"
            "    def to_obj(self):\n        return dict(self.__dict__)\n"
            "@dataclass\nclass Cell:\n    z: float\n"
            "@dataclass\nclass Pair:\n    left: float\n"
            "class Plain:\n    note: str\n"
            "def _names(cls):\n    return [f.name for f in fields(cls)]\n"
            "def _keys(kind):\n    return _names(kind)\n"
            "COLUMNS = _keys(Cell)\n"
        ),
        "b": "from .a import Row\nRow(1, 2, 3).total()\n",
    }
    # a dotted binding string reads its field; `fields` of a class reads all
    bench = (
        "import dataclasses\nfrom a import Pair\n"
        "TABLE = {'layer': [('a', 'Row.traced')]}\n"
        "KEYS = [f.name for f in dataclasses.fields(Pair)]\n"
    )
    assert _unread_fields(package, [bench]) == ["a.Row.shadowed", "a.Row.unread"]


def test_a_default_only_tests_set_is_caught():
    package = {
        "a": (
            "def scale(x, factor=2.0, *, clip=None, mode='a'):\n    return x\n"
            "def pad(x, width=1, fill=0):\n    return x\n"
            "def unset(x=1):\n    return x\n"
            "class Box:\n"
            "    def __init__(self, n=0):\n        self.n = n\n"
            "    def fit(self, data, epochs=1, verbose=False):\n        return data\n"
            "    @staticmethod\n    def make(n=3):\n        return n\n"
        ),
        "b": "from .a import Box, scale\nscale(1, clip=2)\nBox().fit([], 5)\nBox.make()\n",
    }
    # a positional argument sets the default at its place; `**` sets them all
    bench = "from a import pad\ndef run(kw):\n    return pad(1, 2, **kw)\n"
    assert _unset_defaults(package, [bench]) == [
        "a.Box.fit(verbose)", "a.Box.make(n)", "a.scale(factor, mode)", "a.unset(x)",
    ]
