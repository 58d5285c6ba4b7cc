"""GUM compute kernels: one update semantics, two implementations.

The GUM record-update hot path is expressed as a :class:`GumKernel`:

- ``reference`` — the original per-cell Python loop, kept verbatim as the
  golden oracle (:mod:`~repro.synthesis.kernels.reference`);
- ``fused`` — whole-step numpy passes over the stepped marginal alone: its
  ``uint16`` codes and counts rebuilt from the data when the step starts,
  radix-sorted grouping, cell bounds from the counts and a single
  bounds-broadcast duplication draw (:mod:`~repro.synthesis.kernels.fused`).

Both kernels consume the random stream identically and produce bit-identical
output.  Every release runs ``fused``; ``reference`` is reachable only by
passing an instance to :func:`~repro.synthesis.gum.run_gum`, which is how
the parity suite proves ``fused`` against it.
"""

from repro.synthesis.kernels.base import GumKernel, _MarginalState
from repro.synthesis.kernels.fused import FusedKernel
from repro.synthesis.kernels.reference import ReferenceKernel

#: Every name :func:`get_kernel` accepts.
KERNELS = {"fused": FusedKernel, "reference": ReferenceKernel}


def get_kernel(name: str) -> GumKernel:
    """A fresh instance of the kernel ``name`` selects.

    Raises ``ValueError`` for a name outside :data:`KERNELS`.
    """
    try:
        cls = KERNELS[name]
    except (KeyError, TypeError):
        raise ValueError(f"kernel must be one of {tuple(KERNELS)}, got {name!r}") from None
    return cls()


__all__ = [
    "KERNELS",
    "FusedKernel",
    "GumKernel",
    "ReferenceKernel",
    "get_kernel",
    "_MarginalState",
]
