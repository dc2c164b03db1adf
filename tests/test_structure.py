"""Source layout checks: one float kernel formula, one float solve kernel,
one integer row builder for the exact tier, one lockstep engine, one
mean-field iteration per deterministic table, no pass-through layer
left behind, and no module reaching into a sibling's private names."""

import ast
import inspect
from pathlib import Path

import avalanche
from avalanche.exact import PrecisionConfig, SubstochasticSystem
from avalanche.model import ModelParams

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


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)]


def test_one_float_kernel_formula():
    trees = _trees()
    assert [node.name for node in _functions(trees["model.py"])
            if _calls(node, "gammaln")] == ["kernel_rows"]
    exact = trees["exact.py"]
    assert not _calls(exact, "kernel_row")
    build = next(node for node in _functions(exact)
                 if node.name == "build_q_float")
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                   for node in ast.walk(build))
    # the mpf rows come from SubstochasticSystem.row; no function that
    # reads them converts to float
    assert not [node.name for node in _functions(exact)
                if _calls(node, "float")
                and (_calls(node, "self", "row")
                     or _calls(node, "system", "row"))]


def _forms_binomial_terms(function):
    """A floor division by one of the function's loop variables, as in
    C(m, j) = C(m, j-1) (m-j+1) // j, or a binomial coefficient call."""
    loop_names = {name.id for node in ast.walk(function)
                  if isinstance(node, (ast.For, ast.comprehension))
                  for name in ast.walk(node.target)
                  if isinstance(name, ast.Name)}
    return any(isinstance(node, ast.BinOp)
               and isinstance(node.op, ast.FloorDiv)
               and isinstance(node.right, ast.Name)
               and node.right.id in loop_names
               for node in ast.walk(function)) or any(
        _calls(function, *chain) for chain in (
            ("mp", "binomial"), ("binomial",), ("math", "comb"), ("comb",)))


def test_one_integer_row_builder_in_exact():
    functions = {node.name: node for node in _functions(_trees()["exact.py"])}
    assert [name for name, node in functions.items()
            if _forms_binomial_terms(node)] == ["int_row"]
    # the mpf view, the fixed-point rows and the residual gate read it
    for name in ("row", "fixed_point_q", "_residual_inf"):
        assert (_calls(functions[name], "self", "int_row")
                + _calls(functions[name], "system", "int_row")), name
    # the reach right-hand sides come from sums formed once per
    # factorization, not from a sum over factor rows per level
    assert [name for name, node in functions.items()
            if _calls(node, "mp", "fsum")] == ["factors"]


def test_row_view_keeps_the_traced_interface():
    # bench/tracer.py wraps row(i, digits=None) and reads _rows by key
    params = inspect.signature(SubstochasticSystem.row).parameters
    assert list(params) == ["self", "i", "digits"]
    assert params["digits"].default is None
    system = SubstochasticSystem(ModelParams(12, 0.1), PrecisionConfig(60))
    system.row(3)
    system.row(5, 120)
    assert list(system._rows) == [(3, 60), (5, 120)]


def test_binomial_step_only_in_the_lockstep_samplers():
    callers = sorted(f"{name}:{node.name}"
                     for name, tree in _trees().items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and _calls(node, "binomial_step"))
    assert callers == ["harness.py:simulate_scaled_chain",
                       "model.py:run_block", "model.py:run_occupation"]


def test_deterministic_table_iterates_the_map_once():
    command = next(node for node in _functions(_trees()["harness.py"])
                   if node.name == "cmd_deterministic")
    source = ast.unparse(command)
    assert _calls(command, "mf", "iterate_mean_field") == 1
    assert source.count("iterate_mean_field") == 1   # nor handed to a helper
    assert "FluctuationModel" not in source


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


def test_no_pass_through_layers():
    trees = _trees()
    # reports judge themselves when built
    assert not [node for node in ast.walk(trees["harness.py"])
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "judge"]
    defined = {f"{name}:{node.name}" for name, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"harness.py:_trajectory_block",
                          "exact.py:_substitute", "meanfield.py:MapParams"}
