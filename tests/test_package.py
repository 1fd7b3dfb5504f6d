"""The package's public surface: each module's __all__ is the one list of its public names."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import sizematch

MODULES = ["core", "diagram", "matching", "bounds", "realize"]

REALIZE_THEN_IMPORT = """
import contextlib, io, sys
import sizematch, sizematch.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = sizematch.cli.main(["realize", sys.argv[1], sys.argv[2]])
import sizematch.realize
assert code == 0 and '"round_trip"' in out.getvalue(), (code, out.getvalue()[:200])
print(sizematch.realize is sys.modules["sizematch.realize"].realize)
"""


def _module(name):
    # the package attribute sizematch.realize is the function, so fetch the module
    return importlib.import_module(f"sizematch.{name}")


def test_the_package_attribute_realize_stays_the_function_after_the_module_is_imported(tmp_path):
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    d1.write_text('{"infinity_x": 0, "points": [[1, 3, 1], [2, 5, 2]]}')
    d2.write_text('{"infinity_x": 0.5, "points": [[1.5, 3.25, 1]]}')
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sizematch.__file__)))
    done = subprocess.run([sys.executable, "-c", REALIZE_THEN_IMPORT, str(d1), str(d2)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_star_import_binds_exactly_all_and_each_name_is_its_modules_object():
    namespace = {}
    exec("from sizematch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(sizematch.__all__))
    assert len(sizematch.__all__) == len(set(sizematch.__all__))
    assert namespace["__version__"] == sizematch.__version__
    owners = [_module(name) for name in MODULES + ["selftest"]]
    for name in sizematch.__all__:
        if name != "__version__":
            owner = next(module for module in owners if name in module.__all__)
            assert namespace[name] is getattr(owner, name), name
    assert namespace["realize"] is _module("realize").realize


@pytest.mark.parametrize("name", MODULES)
def test_every_public_class_and_function_is_in_its_modules_all(name):
    module = _module(name)
    defined = [key for key, value in vars(module).items()
               if not key.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
               and value.__module__ == module.__name__]
    assert [key for key in defined if key not in module.__all__] == []
    assert set(module.__all__) <= set(sizematch.__all__)


def test_only_diagram_reads_a_diagrams_integer_rows_and_scale():
    # a pair of diagrams is put on one unit by diagram._on_one_unit, so no
    # other module reads the stored integer form
    package = os.path.dirname(sizematch.__file__)
    readers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "diagram.py":
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            if any(isinstance(node, ast.Attribute) and node.attr in ("_rows", "_scale")
                   for node in ast.walk(tree)):
                readers.add(name)
    assert readers == set()


def test_only_core_diagram_and_bounds_read_a_size_pairs_adjacency_lists():
    # extraction and the exact search run on the stored vertex positions;
    # every other module goes through the id API of SizePair
    package = os.path.dirname(sizematch.__file__)
    readers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            if any(isinstance(node, ast.Attribute) and node.attr == "_adj"
                   for node in ast.walk(tree)):
                readers.add(name)
    assert readers == {"core.py", "diagram.py", "bounds.py"}


def test_realize_finds_equal_columns_by_index_not_by_object_identity():
    # a field shares a column through its layout, an index into its distinct columns
    path = os.path.join(os.path.dirname(sizematch.__file__), "realize.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename="realize.py")
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []


def test_realize_reads_no_diagrams_points():
    # realize() reads a diagram pair through diagram._on_one_unit and the matching witness
    path = os.path.join(os.path.dirname(sizematch.__file__), "realize.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename="realize.py")
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "points"]
    assert reads == []


def test_the_realize_self_check_shares_only_the_column_pieces_and_the_sweep_with_the_extraction():
    # _field_diagrams sweeps keys of its own, made from the column pieces that discretize's
    # grid values are made from too: it shares those pieces and the sweep, but neither the grid
    # values nor the ranking that discretize and extract_diagram use, so the seeded comparison
    # of the two routes checks one against the other
    path = os.path.join(os.path.dirname(sizematch.__file__), "realize.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename="realize.py")
    shared = {"_grid_values", "_ratio_diagram", "_ratio_levels"}
    called = {}
    for name in ("_field_diagrams", "_grid_keys"):
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        called[name] = {getattr(node.func, "id", getattr(node.func, "attr", None))
                        for node in ast.walk(body) if isinstance(node, ast.Call)}
        assert not called[name] & shared, name
    assert {"_grid_keys", "_sweep"} <= called["_field_diagrams"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_sweep" in imported and not imported & {"_ratio_diagram", "_ratio_levels"}


def test_every_sampled_value_of_a_field_goes_through_one_piece_builder():
    # the grid keys, the grid values (and so values_per_column and discretize) and value_at
    # all read a column through _pieces; no second interpolator lifts knots to one lcm scale
    path = os.path.join(os.path.dirname(sizematch.__file__), "realize.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename="realize.py")
    calls = {node.name: {getattr(call.func, "id", getattr(call.func, "attr", None))
                         for call in ast.walk(node) if isinstance(call, ast.Call)}
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_pieces" in calls and not calls.keys() & {"_sample", "_on_scale"}
    for name in ("_grid_keys", "_grid_values", "value_at"):
        reached, todo = set(), [name]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee in calls and callee not in reached:
                    reached.add(callee)
                    todo.append(callee)
        assert "_pieces" in reached, name


def test_realize_puts_the_pair_on_one_unit_once_and_solves_it_there():
    # realize() builds every structure from the int rows of one _on_one_unit call and the
    # row-level witness solved on them: no second unit, no matching_distance, no on_scale
    path = os.path.join(os.path.dirname(sizematch.__file__), "realize.py")
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename="realize.py")
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "realize")
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(body) if isinstance(node, ast.Call)]
    assert called.count("_on_one_unit") == called.count("_check_matching_size") == 1
    assert "matching_distance" not in called and "on_scale" not in called
