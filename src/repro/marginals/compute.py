"""Exact marginal computation from an encoded dataset."""

from __future__ import annotations

import numpy as np

from repro.binning.encoder import EncodedDataset
from repro.marginals.marginal import Marginal


def cell_codes(data: np.ndarray, shape: tuple) -> np.ndarray:
    """Flat cell index of every row: ``data`` is (n, k) ints over ``shape``.

    The primitive under marginal computation (``ravel_multi_index`` over the
    row block, bounds-checked); the GUM kernels are tested against it.
    """
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[1] != len(shape):
        raise ValueError(f"data shape {data.shape} incompatible with domain {shape}")
    if data.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.ravel_multi_index(tuple(data.T), shape)


def marginal_counts(data: np.ndarray, shape: tuple) -> np.ndarray:
    """Histogram of joint codes: ``data`` is (n, k) ints, shape the domain.

    Implemented as :func:`cell_codes` + ``bincount`` — the fast path that
    both marginal publication and the GUM inner loop rely on.
    """
    if np.asarray(data).shape[0] == 0:
        # Validate the shape contract even for the empty fast path.
        cell_codes(data, shape)
        return np.zeros(shape, dtype=np.float64)
    flat = cell_codes(data, shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.reshape(shape).astype(np.float64)


def compute_marginal(encoded: EncodedDataset, attrs) -> Marginal:
    """Exact marginal of ``encoded`` over ``attrs``."""
    attrs = tuple(attrs)
    shape = encoded.domain.shape(attrs)
    counts = marginal_counts(encoded.project(attrs), shape)
    return Marginal(attrs, counts)


def exact_count_payload(encoded: EncodedDataset) -> tuple:
    """The shared payload of the exact-count executor tasks.

    ``(data, sizes)`` — the encoded int32 matrix plus per-column domain
    sizes.  The kernels stream over column slices, so the matrix must be in
    Fortran order: the fit's encoded matrix already is and is returned as a
    view (no copy); anything else is converted once.  It is shipped to
    workers once (fork inheritance or pool initializer) and reused by both
    the InDif scan and marginal publication; see
    :meth:`repro.engine.backends.Backend.open`.
    """
    sizes = tuple(int(encoded.domain.size(name)) for name in encoded.attrs)
    return (np.asfortranarray(encoded.data), sizes)
