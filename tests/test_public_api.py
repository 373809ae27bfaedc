"""The library's public API is exactly what the program reaches.

Every public module-level function or class of the library modules must be
referenced somewhere in ``src/ksmode`` or ``ksbench/workloads.py`` other
than its own definition (an ``__all__`` entry is a string, not a
reference).  A name that only tests reach is dead weight that every change
must still read and keep, so it is deleted or moved into the tests.  The
only exceptions are the DELIBERATE names below, each with its reason.
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
    "waveop.conjugation_residual":
        "paper step: the U_1 conjugation of the l = 1 operator, not yet a "
        "check of criterion 4",
    "operators.assemble_tilde_Ll_alpha":
        "paper step: the partial localization for l = 2, not yet a check of "
        "criterion 1",
    "operators.assemble_H_l_alpha_W":
        "paper step: the GGMT comparison operator for l = 2, not yet a check "
        "of criterion 1",
}


def public_names(modname):
    mod = importlib.import_module(f"ksmode.{modname}")
    return sorted(name for name, obj in vars(mod).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == mod.__name__)


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


def references():
    """{"module.name": {(file, enclosing top-level definition)}}."""
    refs = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        bound = _bindings(path, tree)
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and "." in bound.get(node.id, ""):
                    target = bound[node.id]
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and bound.get(node.value.id) in MODULES):
                    target = f"{bound[node.value.id]}.{node.attr}"
                else:
                    continue
                refs.setdefault(target, set()).add((path, owner))
    return refs


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
def test_all_entries_exist(modname):
    mod = importlib.import_module(f"ksmode.{modname}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_deliberate_names_exist():
    for qual in DELIBERATE:
        modname, name = qual.split(".")
        assert name in public_names(modname), qual
