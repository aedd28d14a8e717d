"""Names that code outside the package relies on.

The span tracer in bench/layers.py rebinds fcrystals functions and methods by
name, so deleting or renaming one would silently drop a layer from the traced
benchmark.  The public names of the package are pinned here as well, both
ways: none may go missing and none may appear unlisted.  So are the names
of fcrystals.semilinear.__all__.
"""

import importlib
import importlib.util
import os
import types

import pytest

import fcrystals

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "layers.py")

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

# fcrystals.semilinear's public names: the filtered-module API and the boxed
# WMat functions, each of which checks its entries once on the way in
SEMILINEAR_NAMES = """
FilteredFModule SlopeProfile VerifyReport verify tensor twisted_dual newton_slopes direct_sum
conjugate conjugate_by_permutation is_isomorphism_witness smith_normal_form
wmat wm_zero wm_shape wm_transpose wm_mul wm_sigma wm_sigma_inv charpoly wm_det wm_kron
wm_adjugate wm_inverse_unit
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
