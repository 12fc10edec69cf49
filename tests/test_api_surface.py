"""Every top-level function and class in ``src/hessiankit`` has a caller in ``src/``.

A public name that only tests reach is surface the package carries for no
command or suite.  The exceptions are the names the benchmark imports from
the package (``BENCH_PINNED``); each must still be referenced by its bench
file, so the map goes stale, and this test fails, once the benchmark drops
one.  A private helper left behind when its last caller goes is dead code,
and has no exceptions; neither has a private method (a non-dunder ``_name``
defined in a class), which needs a reference outside its own body.  A
public method needs one too, unless the benchmark reads it
(``BENCH_PINNED_METHODS``, kept current like ``BENCH_PINNED``).  So does
every module-level UPPER_CASE constant: one that nothing in ``src/`` reads
is a leftover of removed code.

The other way round, the surface the benchmark reads stays in the package:
every module attribute a bench file names, the sampling parameters of
``estimate_modulus`` and ``hessiankit modulus --seed``.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from hessiankit import cli, modulus

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hessiankit"

BENCH_PINNED = {
    "TableDensity": "bench/workloads.py",
    "boundary_from_samples": "bench/workloads.py",
    "elementary_symmetric_enumerate": "bench/workloads.py",
    "l_alpha": "bench/workloads.py",
}
BENCH_PINNED_METHODS = {
    "ModulusCurve.from_csv": "bench/workloads.py",
}


def referenced_names(tree: ast.AST):
    """Yield each name or attribute referenced in tree (strings do not count)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def package_surface():
    """(top-level definitions by module, set of (module, name, enclosing definition)).

    The enclosing definition is the top-level function or class a reference
    sits in, or None at module level.
    """
    defined = {}
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        defined[module] = [node.name for node in tree.body if isinstance(node, defs)]
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, defs) else None
            refs.update((module, name, owner) for name in referenced_names(stmt))
    return defined, refs


DEFINED, REFS = package_surface()
PUBLIC = {module: [n for n in names if not n.startswith("_")] for module, names in DEFINED.items()}
PRIVATE = {module: [n for n in names if n.startswith("_")] for module, names in DEFINED.items()}


def has_src_caller(module: str, name: str) -> bool:
    return any(ref == name and (mod, owner) != (module, name) for mod, ref, owner in REFS)


def test_every_public_name_has_a_src_caller():
    orphans = [
        f"{module}.{name}" for module, names in PUBLIC.items() for name in names
        if name not in BENCH_PINNED and not has_src_caller(module, name)
    ]
    assert orphans == []


def test_every_private_helper_has_a_src_caller():
    dead = [
        f"{module}.{name}" for module, names in PRIVATE.items() for name in names
        if not has_src_caller(module, name)
    ]
    assert dead == []


def class_methods():
    """Yield (module, class, method definition) of each non-dunder method of
    a top-level class in src/."""
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.stem, cls.name, node


def uncalled_methods(private: bool):
    """The private or the public methods referenced only inside their own body."""
    everywhere = Counter(
        name for path in PACKAGE.glob("*.py")
        for name in referenced_names(ast.parse(path.read_text()))
    )
    methods = [(module, cls, node) for module, cls, node in class_methods()
               if node.name.startswith("_") == private]
    assert methods, f"no {'private' if private else 'public'} method found in src/"
    return [
        f"{cls}.{node.name}" for module, cls, node in methods
        if everywhere[node.name] == Counter(referenced_names(node))[node.name]
    ]


def test_every_private_method_has_a_src_caller():
    assert uncalled_methods(private=True) == []


def test_every_public_method_has_a_src_caller():
    assert sorted(uncalled_methods(private=False)) == sorted(BENCH_PINNED_METHODS)


def module_constants():
    """Yield (module, name) of each module-level UPPER_CASE assignment in src/."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and node.id.isupper():
                        yield path.stem, node.id


def test_every_module_constant_has_a_src_reader():
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    constants = list(module_constants())
    assert constants, "no module constant found in src/"
    assert [f"{module}.{name}" for module, name in constants if name not in read] == []


@pytest.mark.parametrize("name, bench_file", sorted(BENCH_PINNED_METHODS.items()))
def test_bench_method_pin_is_current(name, bench_file):
    tree = ast.parse((ROOT / bench_file).read_text())
    assert name.split(".")[1] in set(referenced_names(tree)), f"{bench_file} no longer uses {name}"


@pytest.mark.parametrize("name, bench_file", sorted(BENCH_PINNED.items()))
def test_bench_pin_is_current(name, bench_file):
    owners = [module for module, names in PUBLIC.items() if name in names]
    assert owners, f"{name} is not a public name of the package"
    assert not has_src_caller(owners[0], name), f"{name} has a src/ caller; unpin it"
    tree = ast.parse((ROOT / bench_file).read_text())
    assert name in set(referenced_names(tree)), f"{bench_file} no longer uses {name}"


BENCH_MODULES = ("modulus", "barrier", "core", "geometry", "radial", "cli")


def bench_attributes():
    """Sorted (bench file, module, attribute) of every ``module.attribute`` in bench/."""
    found = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in BENCH_MODULES):
                found.add((path.name, node.value.id, node.attr))
    return sorted(found)


def test_bench_attributes_exist():
    found = bench_attributes()
    assert found, "no module attribute found in bench/"
    missing = [
        f"{bench_file}: {module}.{attr}" for bench_file, module, attr in found
        if not hasattr(importlib.import_module(f"hessiankit.{module}"), attr)
    ]
    assert missing == []


def test_estimate_modulus_keeps_the_sampling_parameters():
    params = inspect.signature(modulus.estimate_modulus).parameters
    assert {"seed", "pair_threshold", "pair_budget"} <= set(params)


def test_modulus_command_takes_seed():
    args = cli.build_parser().parse_args(["modulus", "--input", "points.csv", "--seed", "3"])
    assert args.seed == 3
