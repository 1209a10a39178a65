"""Every module-level function, class and upper-case constant of the
package, and every method and property of its classes other than the
dunders, has a use outside the tests.

A name is used when code other than its own definition mentions it: a
package module, a demo, or the benchmark, whose binding tables name package
attributes in strings. Test files do not count, so a helper that only tests
call is caught, as is one that a deletion left behind. The scan matches by
name, so a same-named attribute elsewhere also counts as a use: it can miss
a dead name, but never reports a live one.
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
