"""Source layout checks: one float solve kernel, and no module reaching
into a sibling's private names."""

import ast
from pathlib import Path

import avalanche

SRC = Path(avalanche.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _calls(tree, *chain):
    """Calls whose callee is the attribute chain, e.g. np.linalg.solve."""
    def dotted(node):
        if isinstance(node, ast.Attribute):
            return dotted(node.value) + (node.attr,)
        return (node.id,) if isinstance(node, ast.Name) else ()
    return sum(isinstance(node, ast.Call) and dotted(node.func) == chain
               for node in ast.walk(tree))


def test_one_float_solve_and_one_i_minus_q_both_in_exact():
    trees = _trees()
    solves = {name: _calls(tree, "np", "linalg", "solve")
              for name, tree in trees.items()}
    eyes = {name: _calls(tree, "np", "eye") for name, tree in trees.items()}
    assert {k: v for k, v in solves.items() if v} == {"exact.py": 1}
    assert {k: v for k, v in eyes.items() if v} == {"exact.py": 1}
    assert not any("linalg" in ast.unparse(node)
                   for name, tree in trees.items() if name != "exact.py"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_no_private_name_from_a_sibling():
    found = []
    for name, tree in _trees().items():
        siblings = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level or (node.module or "").startswith(
                "avalanche")
            if not sibling:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{name}: {node.module}.{alias.name}")
                if node.module in (None, "avalanche"):  # from . import x
                    siblings.add(alias.asname or alias.name)
        found += [f"{name}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings
                  and node.attr.startswith("_")]
    assert not found
