"""Domain: the discrete value space of an encoded dataset.

After binning, every attribute takes values in ``range(size)``.  A
:class:`Domain` records the per-attribute sizes and provides the index
arithmetic that marginal computation and synthesis rely on.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class Domain:
    """Ordered mapping from attribute name to discrete domain size."""

    def __init__(self, sizes: Mapping[str, int]) -> None:
        for name, size in sizes.items():
            if size < 1:
                raise ValueError(f"domain size for {name!r} must be >= 1, got {size}")
        self._sizes = dict(sizes)

    @property
    def names(self) -> tuple:
        """Attribute names in order."""
        return tuple(self._sizes)

    def size(self, name: str) -> int:
        """Domain size of one attribute."""
        return self._sizes[name]

    def shape(self, attrs: Iterable[str]) -> tuple:
        """Domain sizes of a tuple of attributes, in the given order."""
        return tuple(self._sizes[a] for a in attrs)

    def cells(self, attrs: Iterable[str]) -> int:
        """Number of cells of the marginal over ``attrs`` (exact, never wraps)."""
        return math.prod(map(int, self.shape(attrs)))

    def total_size(self) -> int:
        """Sum of all attribute domain sizes (the paper's Table 5 'Domain')."""
        return int(sum(self._sizes.values()))

    def project(self, attrs: Iterable[str]) -> "Domain":
        """Sub-domain over ``attrs`` in the given order."""
        return Domain({a: self._sizes[a] for a in attrs})

    def __contains__(self, name: str) -> bool:
        return name in self._sizes

    def __iter__(self):
        return iter(self._sizes)

    def __len__(self) -> int:
        return len(self._sizes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Domain) and self._sizes == other._sizes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self._sizes.items())
        return f"Domain({inner})"
