import importlib
import pkgutil

import pytest

import fdmud

PACKAGE_EXPORTS = {
    "BinChannel",
    "ChannelConfig",
    "ChannelRealization",
    "ComplexityReport",
    "DegenerateScaleError",
    "DetectionResult",
    "DetectorKind",
    "FrameConfig",
    "InverseCache",
    "PrecodeResult",
    "ReceivedFrame",
    "ScenarioConfig",
    "SingularMatrixError",
    "SinrReport",
    "SinrRow",
    "SymbolFrame",
    "bin_vector",
    "complexity_sweep",
    "constellation_points",
    "count_mults_mmse",
    "count_mults_mrcmmse",
    "detect_frame",
    "diag_of_product",
    "draw_channel",
    "generate_symbols",
    "invert_hpd",
    "measure_sinr",
    "mmse_bin",
    "mrc_bin",
    "mrcmmse_bin",
    "precode_frame",
    "run_monte_carlo",
    "theoretical_gains",
    "to_bin_channels",
    "to_frequency_domain",
    "transmit",
}

MODULES = ["fdmud"] + [f"fdmud.{info.name}" for info in pkgutil.iter_modules(fdmud.__path__)]


def test_package_exports_are_pinned():
    assert len(fdmud.__all__) == len(set(fdmud.__all__)) == 36
    assert set(fdmud.__all__) == PACKAGE_EXPORTS


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
