"""Names that code outside the package relies on.

The span tracer in bench/layers.py rebinds fcrystals functions and methods by
name, so deleting or renaming one would silently drop a layer from the traced
benchmark.  The public names of the package are pinned here as well, both
ways: none may go missing and none may appear unlisted.  So are the names
of fcrystals.semilinear.__all__.  And no module keeps a public function or
class that nothing reaches: each is used elsewhere in the package, exported
by it, or bound by the tracer.
"""

import ast
import importlib
import importlib.util
import os
import types

import pytest

import fcrystals

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "layers.py")
PACKAGE = os.path.dirname(fcrystals.__file__)

PUBLIC_NAMES = """
AbelianBlock LatticeData TorusData abelian_from_ap lattice_block tate torus_block
DomainError FCrystalsError IncompatibleRingsError InternalError InvalidActionError
InvalidExtensionDataError InvalidSimplicialError InvalidTraceError MalformedInputError
PrecisionError ShapeError SingularFrobeniusError UnsupportedCharacteristicError
UnsupportedInputError
MotiveCrystal MotiveReport OneMotiveSpec PairingMatrix assemble cartier_dual dual_witness
pair tdr_dimension torsion_height verify_motive
FilteredFModule SlopeProfile VerifyReport direct_sum newton_slopes smith_normal_form tensor
twisted_dual verify
DivisorPresentation H1Ledger PicardSkeleton SimplicialComponents cocharacter_group
component_complex div0_lattice h1_weight_ledger picard_skeleton
RingParams WittElem default_modulus dp_exp dp_log frobenius frobenius_inverse teichmuller
with_precision
""".split()

# fcrystals.semilinear's public names: the filtered-module API, wm_shape,
# and the four boxed functions the tracer binds, each of which checks its
# entries once on the way in
SEMILINEAR_NAMES = """
FilteredFModule SlopeProfile VerifyReport verify tensor twisted_dual newton_slopes direct_sum
wm_shape wm_mul wm_sigma wm_sigma_inv charpoly
""".split()


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _layers()


@pytest.mark.parametrize("module,name", [(m, f) for m, f, _, _ in layers.FUNCTIONS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"fcrystals.{module}"), name))


@pytest.mark.parametrize("module,cls,attr", [(m, c, a) for m, c, a, _ in layers.METHODS])
def test_traced_method_resolves(module, cls, attr):
    owner = getattr(importlib.import_module(f"fcrystals.{module}"), cls)
    assert callable(getattr(owner, attr))


def test_public_names_import():
    missing = [name for name in PUBLIC_NAMES if not hasattr(fcrystals, name)]
    assert missing == []


def test_no_unlisted_public_names():
    """Every public attribute of the package, apart from its submodules and
    __version__, is listed: adding a public name is as deliberate as
    removing one."""
    exported = {
        name
        for name, value in vars(fcrystals).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - set(PUBLIC_NAMES)) == []


def test_semilinear_all_is_pinned():
    """semilinear.__all__ is the listed set, both ways, and every name resolves."""
    semilinear = importlib.import_module("fcrystals.semilinear")
    assert sorted(set(semilinear.__all__) - set(SEMILINEAR_NAMES)) == []
    assert sorted(set(SEMILINEAR_NAMES) - set(semilinear.__all__)) == []
    assert len(semilinear.__all__) == len(SEMILINEAR_NAMES)
    assert all(hasattr(semilinear, name) for name in SEMILINEAR_NAMES)


def _module_references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs that module's code uses, each resolved to the
    module that defines it: a bare name to its own top-level definition or
    to the relative import that binds it, and an attribute only on the alias
    of an imported fcrystals module, so that ``m.rank`` is no use of
    ``intmat.rank``.  A use inside a name's own definition does not count."""
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:  # from . import intmat
                    aliases[a.asname or a.name] = a.name
                else:
                    imported[a.asname or a.name] = (node.module, a.name)
    refs = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                if node.id in imported:
                    refs.add(imported[node.id])
                elif node.id in defined:
                    refs.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _package_modules() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, f"{name}.py"), encoding="utf-8") as fh:
            trees[name] = ast.parse(fh.read())
    return trees


def test_every_public_definition_is_reached():
    """Every public top-level function or class of an fcrystals module is
    used by another definition in the package (fcrystals/__init__.py's
    imports are exports, not uses), exported by the package, or named in
    bench/layers.py's FUNCTIONS."""
    modules = _package_modules()
    used = set().union(*(_module_references(m, tree) for m, tree in modules.items() if m != "__init__"))
    traced = {(m, f) for m, f, _, _ in layers.FUNCTIONS}
    unreached = []
    for module, tree in modules.items():
        loaded = importlib.import_module(f"fcrystals.{module}")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            key = (module, node.name)
            exported = getattr(fcrystals, node.name, None) is getattr(loaded, node.name)
            if key not in used and key not in traced and not exported:
                unreached.append(f"{module}.{node.name}")
    assert unreached == []
