"""Deterministic band-limited random fields for ratio and drift studies.

Coefficients are drawn mode-by-mode in a fixed lexicographic order over the
half-lattice, so a given (seed, max_mode, count) names the same continuum
functions at every resolution; rendering the corpus at N and 2N then measures
pure discretization effects.
"""
from __future__ import annotations

import numpy as np

from .fields import GridSpec, RealField
from . import spectral

DEFAULT_SEED = 8191


def half_lattice_modes(max_mode: int) -> list[tuple[int, int]]:
    """Nonzero modes with |k| <= max_mode, one representative per +-k pair,
    in lexicographic order."""
    modes = []
    for k1 in range(0, max_mode + 1):
        for k2 in range(-max_mode, max_mode + 1):
            if k1 == 0 and k2 <= 0:
                continue
            if k1 * k1 + k2 * k2 <= max_mode * max_mode:
                modes.append((k1, k2))
    return modes


def band_limited_corpus(
    grid: GridSpec,
    count: int = 50,
    max_mode: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> list[RealField]:
    """Mean-zero real fields with unit-variance random coefficients supported
    in |k| <= max_mode (default N/6), normalized to O(1) amplitude."""
    max_mode = grid.n // 6 if max_mode is None else int(max_mode)
    if not 0 < max_mode < grid.n // 2:
        raise ValueError(f"max_mode must lie in (0, N/2), got {max_mode}")
    modes = half_lattice_modes(max_mode)
    k1, k2 = np.array(modes).T
    rng = np.random.default_rng(seed)
    n = grid.n
    fields = []
    for _ in range(count):
        draws = rng.standard_normal((len(modes), 2))
        c = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
        coeff = np.zeros((n, n), dtype=complex)
        coeff[k1 % n, k2 % n] = c
        coeff[-k1 % n, -k2 % n] = np.conj(c)
        values = spectral.inverse(spectral.half(coeff), n) * n * n / np.sqrt(len(modes))
        fields.append(RealField(grid, values))
    return fields
