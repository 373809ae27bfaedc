"""The library's public API is exactly what the program reaches.

Every public module-level function or class of the library modules must be
referenced somewhere in ``src/ksmode`` or ``ksbench/workloads.py`` other
than its own definition (an ``__all__`` entry is a string, not a
reference).  A name that only tests reach is dead weight that every change
must still read and keep, so it is deleted or moved into the tests.  The
only exceptions are the DELIBERATE names below, each with its reason.
Every private module-level function or class must be referenced by other
code of ``src/ksmode`` in the same way, with no exceptions, so no private
helper lives on as a seam that only tests reach.

Likewise a defaulted parameter of a public library function that every
program call sets to the same value is a knob with one setting: it becomes
a constant, except for the DELIBERATE_KNOBS below.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ksmode"
SOURCES = sorted(PACKAGE.glob("*.py")) + [ROOT / "ksbench" / "workloads.py"]
MODULES = ("radial", "operators", "spectra", "evolution", "ggmt", "waveop",
           "profile")

DELIBERATE = {
    "profile.d2inv_q":
        "quadrature oracle of d2inv_q_closed, which the operators use",
    "profile.big_g":
        "closed form of G; the tests tie it to big_g_quad and to the "
        "closed-form ratio g_over_g = Q'/G that T uses",
    "profile.big_g_quad": "quadrature oracle of big_g",
    "waveop.apply_T_weight_form":
        "second code path for T (weighted projection), cross-checks apply_T",
    "operators.kernel_deriv_deltal_inv_matrix":
        "differentiated-kernel twin of the factorized deriv_deltal_inv_matrix",
}

# Defaulted parameters that every program call sets to one value, kept as
# parameters on purpose, each with its reason.
DELIBERATE_KNOBS = dict.fromkeys(
    ["spectra.refinement_ladder.levels", "spectra.refinement_ladder.rmax_factors",
     "evolution.partial_mass_crosscheck.dt", "ggmt.interpolation_check.R"],
    "the benchmark's workloads (ksbench/workloads.py) pass it, and they "
    "change only together with the benchmark's pins")

# The import layers of the package, lowest first: a module imports only
# modules of lower layers.
LAYERS = (("profile", "radial"), ("operators", "ggmt"),
          ("spectra", "evolution", "waveop"), ("acceptance",), ("cli",))


def defined_names(modname):
    """Every module-level function or class that a library module defines."""
    mod = importlib.import_module(f"ksmode.{modname}")
    return sorted(name for name, obj in vars(mod).items()
                  if (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == mod.__name__)


def public_names(modname):
    return [name for name in defined_names(modname) if not name.startswith("_")]


def _bindings(path, tree):
    """{local name: "module.name" or "module"} for the library names a file sees."""
    bound = {}
    if path.parent == PACKAGE:
        bound.update({node.name: f"{path.stem}.{node.name}" for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:   # relative imports occur only inside the package
            module = f"ksmode.{module}" if module else "ksmode"
        if module == "ksmode":
            bound.update({a.asname or a.name: a.name for a in node.names})
        elif module.startswith("ksmode."):
            source = module.removeprefix("ksmode.")
            bound.update({a.asname or a.name: f"{source}.{a.name}"
                          for a in node.names})
    return bound


def _target(node, bound):
    """The "module.name" that a name or module attribute refers to, or None."""
    if isinstance(node, ast.Name) and "." in bound.get(node.id, ""):
        return bound[node.id]
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and bound.get(node.value.id) in MODULES):
        return f"{bound[node.value.id]}.{node.attr}"
    return None


def references():
    """{"module.name": {(file, enclosing top-level definition)}}."""
    refs = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        bound = _bindings(path, tree)
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                target = _target(node, bound)
                if target is not None:
                    refs.setdefault(target, set()).add((path, owner))
    return refs


def _passed(call, index, param):
    """The literal that ``call`` gives ``param`` (its default when the call
    omits it) as a repr, or None when the call passes a non-literal."""
    keywords = {k.arg: k.value for k in call.keywords}
    positional = param.kind is not param.KEYWORD_ONLY
    if param.name in keywords:
        arg = keywords[param.name]
    elif positional and any(isinstance(a, ast.Starred)
                            for a in call.args[:index + 1]):
        return None
    elif positional and index < len(call.args):
        arg = call.args[index]
    elif None in keywords:   # a ** mapping may set it
        return None
    else:
        return repr(param.default)
    try:
        return repr(ast.literal_eval(arg))
    except ValueError:
        return None


def passed_values():
    """{"module.function.parameter": reprs of the values program calls pass,
    or None once a call passes a non-literal} over every defaulted
    parameter of a public library function that the program calls."""
    signatures = {}
    for mod in MODULES:
        module = importlib.import_module(f"ksmode.{mod}")
        signatures.update({f"{mod}.{name}": inspect.signature(obj)
                           for name in public_names(mod)
                           if inspect.isfunction(obj := getattr(module, name))})
    seen = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        bound = _bindings(path, tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            qual = _target(call.func, bound)
            if qual not in signatures:
                continue
            for index, param in enumerate(
                    signatures[qual].parameters.values()):
                if param.default is param.empty:
                    continue
                key = f"{qual}.{param.name}"
                value = _passed(call, index, param)
                values = seen.setdefault(key, set())
                if value is None or values is None:
                    seen[key] = None
                else:
                    values.add(value)
    return seen


@pytest.mark.parametrize("modname", MODULES)
def test_every_public_name_is_reached(modname):
    refs = references()
    unreached = []
    for name in public_names(modname):
        qual = f"{modname}.{name}"
        own_def = (PACKAGE / f"{modname}.py", name)
        if qual not in DELIBERATE and not refs.get(qual, set()) - {own_def}:
            unreached.append(qual)
    assert unreached == []


@pytest.mark.parametrize("modname", MODULES)
def test_every_private_name_is_reached(modname):
    refs = references()
    own = PACKAGE / f"{modname}.py"
    unreached = []
    for name in defined_names(modname):
        users = {(path, owner) for path, owner in
                 refs.get(f"{modname}.{name}", set()) if path.parent == PACKAGE}
        if name.startswith("_") and not users - {(own, name)}:
            unreached.append(f"{modname}.{name}")
    assert unreached == []


@pytest.mark.parametrize("modname", MODULES)
def test_all_entries_exist(modname):
    mod = importlib.import_module(f"ksmode.{modname}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_deliberate_names_exist():
    for qual in DELIBERATE:
        modname, name = qual.split(".")
        assert name in public_names(modname), qual


def test_no_single_valued_parameter():
    seen = passed_values()
    assert set(DELIBERATE_KNOBS) <= set(seen)
    single = sorted(key for key, values in seen.items()
                    if values is not None and len(values) == 1
                    and key not in DELIBERATE_KNOBS)
    assert single == []


def package_imports(path):
    """The package modules that the file at ``path`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:   # relative imports occur only inside the package
                module = f"ksmode.{module}" if module else "ksmode"
            if module == "ksmode":   # modules, not package attributes
                found.update(a.name for a in node.names
                             if (PACKAGE / f"{a.name}.py").exists())
            elif module.startswith("ksmode."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("ksmode."))
    return found


def test_modules_import_only_lower_layers():
    layer = {mod: i for i, mods in enumerate(LAYERS) for mod in mods}
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(layer)
    upward = sorted((mod, used) for mod in modules
                    for used in package_imports(PACKAGE / f"{mod}.py")
                    if layer[used] >= layer[mod])
    assert upward == []


def test_only_radial_reads_the_trapezoid_weights():
    # every L^2(r^2 dr) weight and norm goes through the grid's r2_weights
    # and norm; the raw trapezoid rule stays inside radial
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if "quad_weights" in path.read_text()]
    assert readers == ["radial.py"]
