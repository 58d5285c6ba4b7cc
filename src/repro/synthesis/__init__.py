"""Record synthesis: GUM / GUMMI, bin decoding, timestamp reconstruction."""

from repro.synthesis.gum import GumConfig, GumResult, run_gum
from repro.synthesis.kernels import GumKernel
from repro.synthesis.initialization import (
    marginal_initialization,
    random_initialization,
    weighted_pearson,
)
from repro.synthesis.decode import decode_records
from repro.synthesis.timestamps import reconstruct_timestamps

__all__ = [
    "GumConfig",
    "GumKernel",
    "GumResult",
    "decode_records",
    "marginal_initialization",
    "random_initialization",
    "reconstruct_timestamps",
    "run_gum",
    "weighted_pearson",
]
