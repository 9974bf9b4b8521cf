"""Frequency-domain multi-user detection for cyclic-prefix single-carrier massive MIMO."""

from .channel import (
    BinChannel,
    ChannelConfig,
    ChannelRealization,
    draw_channel,
    to_bin_channels,
)
from .detect import (
    DetectionResult,
    DetectorKind,
    InverseCache,
    detect_frame,
    mmse_bin,
    mrc_bin,
    mrcmmse_bin,
)
from .frame import (
    FrameConfig,
    ReceivedFrame,
    SymbolFrame,
    bin_vector,
    constellation_points,
    generate_symbols,
    to_frequency_domain,
    transmit,
)
from .harness import (
    ComplexityReport,
    ScenarioConfig,
    SinrReport,
    SinrRow,
    complexity_sweep,
    count_mults_mmse,
    count_mults_mrcmmse,
    measure_sinr,
    run_monte_carlo,
    theoretical_gains,
)
from .numerics import DegenerateScaleError, SingularMatrixError, diag_of_product, invert_hpd
from .precode import PrecodeResult, precode_frame

__version__ = "0.1.0"

__all__ = [
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
]
