"""Every top-level function in src/posemiring/ has a caller outside the tests.

A function counts as referenced when its name appears outside its own body
in src/posemiring/ or perfbench/, as a name, an attribute or a string
constant (perfbench/spans.py names the functions it traces as strings).
Code that only tests read belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

import posemiring

ROOT = Path(__file__).resolve().parent.parent
# single-element predicates, kept as public API of the library
PUBLIC_PREDICATES = frozenset({
    "is_prime_element", "is_maximal_element", "is_primitive_idempotent",
    "is_ideal", "annihilator", "lower_ideal"})


def _references(tree, skip):
    """The names, attributes and string constants in tree outside skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_src_function_has_a_caller_outside_the_tests():
    src = sorted((ROOT / "src" / "posemiring").glob("*.py"))
    assert src
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in src + sorted((ROOT / "perfbench").glob("*.py"))}
    kept = PUBLIC_PREDICATES | set(posemiring.__all__)
    unreferenced = [
        f"{path.name}:{node.name}" for path in src for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in kept
        and not any(node.name in _references(tree, node)
                    for tree in trees.values())]
    assert unreferenced == []
