"""The public surface stays what the pipeline calls.

Every name in ``rockland.__all__``, and every public function and method
defined in ``src/rockland``, must be used outside its own definition: in
another part of the package, a demo, a tool, the bench harness (which may
wrap a method by its name) or the README.  Tests do not count, and neither
does the package ``__init__``.  A name with no such use sits in ``KEPT``
with the reason it stays.
"""

import ast
import glob
import inspect
import os
import re

import rockland

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "rockland")

KEPT = {
    "endpoint": "reference oracle: the metric tests check the compiled "
                "flows and a distance's path against this direct "
                "integration of a control path",
    "tensor_gl_grid": "reference oracle: the full tensor grid that the "
                      "annulus rule of the left-inverse check is tested "
                      "against",
    "adjoint": "reference oracle: ScalarOperator.adjoint is the Leibniz "
               "route the word-reversal transpose is tested against",
    "check_bounds": "reference oracle: ControlPath.check_bounds is how the "
                    "metric tests confirm a path respects its control box",
    "annihilation_residual": "public API: the README names "
                             "KernelSpec.annihilation_residual as the exact "
                             "check that L(P^a) = 0",
    "fractional_integral_check": "acceptance criterion: the fractional "
                                 "integral estimate the criteria suite "
                                 "measures",
    "sup_on_gauge_sphere": "bench: perfbench/layers.py wraps it through "
                           "vars(cls), so deleting it breaks --trace 1",
    "word_evaluator": "bench and kernel API: sup_on_gauge_sphere's "
                      "evaluator of calibrated derivatives",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _package_modules():
    return [_parse(path)
            for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
            if os.path.basename(path) != "__init__.py"]


def _definitions(modules):
    """name -> the nodes defining it: public module-level functions and
    classes, and the public methods of classes."""
    out = {}
    for tree in modules:
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [sub for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            for sub in members:
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) \
                        and not sub.name.startswith("_"):
                    out.setdefault(sub.name, []).append(sub)
    return out


def _used_names(trees, names, definitions):
    """The names read as a variable or an attribute, or given as a string
    (as getattr and the bench's wrappers take them), outside the
    definitions of that same name."""
    inside = {name: {id(sub) for node in nodes for sub in ast.walk(node)}
              for name, nodes in definitions.items()}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in names and id(node) not in inside.get(name, ()):
                used.add(name)
    return used


def _unused_names():
    modules = _package_modules()
    definitions = _definitions(modules)
    names = {name for name in rockland.__all__
             if not inspect.ismodule(getattr(rockland, name))}
    names.update(name for name, nodes in definitions.items()
                 if any(isinstance(node, ast.FunctionDef) for node in nodes))
    others = [path for pattern in ("demos/*.py", "tools/*.py",
                                   "perfbench/*.py")
              for path in sorted(glob.glob(os.path.join(ROOT, pattern)))]
    trees = modules + [_parse(path) for path in others]
    used = _used_names(trees, names, definitions)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    return sorted(name for name in names - used
                  if not re.search(rf"\b{re.escape(name)}\b", readme))


def test_every_public_name_has_a_caller_or_a_reason():
    unexplained = [name for name in _unused_names() if name not in KEPT]
    assert not unexplained, (
        "public names that nothing outside their own definition and the "
        f"tests uses: {unexplained}; delete them, or add each to KEPT with "
        "its reason")


def test_every_kept_name_still_exists():
    missing = sorted(set(KEPT) - set(_definitions(_package_modules())))
    assert not missing, f"KEPT names no package definition: {missing}"
