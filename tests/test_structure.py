"""Source layout checks: one float kernel formula, one float solve kernel,
one integer row builder for the exact tier, one lockstep engine, one
mean-field iteration per deterministic table, random generators built
only from a replicate key, no pass-through layer left behind, no
module reaching into a sibling's private names, no function, class or
method that neither the CLI nor the public list reaches, and no
parameter left unread."""

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


def test_generators_are_built_only_in_rng():
    # every stream is replicate_rng's keyed Philox; no module builds its
    # own, entropy-seeded or not
    def named(node, names):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        return name in names
    built = {name: sorted(ast.unparse(node.func) for node in ast.walk(tree)
                          if isinstance(node, ast.Call)
                          and named(node, {"Philox", "Generator",
                                           "default_rng", "SeedSequence",
                                           "RandomState"}))
             for name, tree in _trees().items()}
    assert {k: v for k, v in built.items() if v} == {
        "rng.py": ["np.random.Generator", "np.random.Philox"]}


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
                          "exact.py:_substitute", "meanfield.py:MapParams",
                          "branching.py:BranchingParams",
                          "branching.py:BranchingPath",
                          "bounds.py:duration_limits_ensemble"}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _reached():
    """Functions, classes and methods reached from ``cli.main`` and
    ``avalanche.__all__`` in a by-name reference graph.

    A module-level def or assignment refers to every name and attribute
    written inside it, and a name reaches whatever is bound to it in any
    module.  A class refers only to its bases, decorators and body less
    its methods, dunder methods excepted.  A method ``C.m`` of a reached
    class is reached when ``m`` is read as an attribute in reached code,
    when ``C`` is public and ``m`` is too, or when ``C`` derives from a
    base outside the package, whose protocol calls it (as numpy calls
    ``generate_state`` on a seed sequence).  Methods are keyed (class,
    method); the rest by name.
    """
    trees = _trees().values()
    classes = {stmt.name for tree in trees for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)}
    parts, outside = {}, set()
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                own = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
                for item in stmt.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _dunder(item.name)):
                        parts[stmt.name, item.name] = [item]
                    else:
                        own.append(item)
                if any(ast.unparse(base) not in classes
                       for base in stmt.bases):
                    outside.add(stmt.name)
                bound = [stmt.name]
            elif isinstance(stmt, ast.FunctionDef):
                own, bound = [stmt], [stmt.name]
            elif isinstance(stmt, ast.Assign):
                own = [stmt]
                bound = [target.id for target in stmt.targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            for name in bound:
                parts.setdefault(name, []).extend(own)
    public = set(avalanche.__all__)
    reached, names, attrs = set(), {"main", *public}, set()

    def reachable(key):
        if isinstance(key, str):
            return key in names
        cls, method = key
        return cls in reached and (
            method in attrs or cls in outside
            or cls in public and not method.startswith("_"))

    while True:
        new = {key for key in parts if key not in reached and reachable(key)}
        if not new:
            return reached
        reached |= new
        for node in (node for key in new for part in parts[key]
                     for node in ast.walk(part)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attrs.add(node.attr)


def _unread_parameters(tree):
    """Parameters, but self and cls, that their function never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)}
        found += [f"{getattr(node, 'name', 'lambda')}({arg.arg})"
                  for arg in (*args.posonlyargs, *args.args,
                              *args.kwonlyargs, args.vararg, args.kwarg)
                  if arg and arg.arg not in read | {"self", "cls"}]
    return found


def test_every_function_and_class_has_a_caller_or_is_public():
    # down to methods, and every parameter is read
    reached = _reached()
    found = []
    for name, tree in _trees().items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in reached:
                found.append(f"{name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{name}:{node.name}.{item.name}"
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not _dunder(item.name)
                          and (node.name, item.name) not in reached]
        found += [f"{name}:{unread}" for unread in _unread_parameters(tree)]
    assert not found
