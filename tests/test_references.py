"""Every module-level function, class and upper-case constant of the
package, every method and property of its classes other than the dunders,
and every attribute its classes set on `self`, has a use outside the tests.

A name is used when code other than its own definition mentions it: a
package module, a demo, or the benchmark, whose binding tables name package
attributes in strings. An attribute set on `self` is used only where code
reads it as an attribute (`obj.name`) or a dotted string names it: a bare
local name of the same spelling is not a read. Test files do not count, so
a helper or a field that only tests read is caught, as is one that a
deletion left behind. The scan matches by name, so a same-named attribute
elsewhere also counts as a use: it can miss a dead name, but never reports
a live one.
"""

import ast
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


def _sources(*dirs: str) -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for d in dirs
        for path in sorted((ROOT / d).glob("*.py"))
    }


def test_every_package_name_has_a_use_outside_the_tests():
    package = _sources("src/policyprune")
    outside = list(_sources("demos").values()) + list(_sources("perfbench").values())
    assert _unused(package, outside) == []


def test_every_instance_attribute_is_read_outside_the_tests():
    package = _sources("src/policyprune")
    outside = list(_sources("demos").values()) + list(_sources("perfbench").values())
    assert _unread_attributes(package, outside) == []


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
