"""Real-data 2-D transforms.  Every transform in the package goes through
here, except the full-layout ``fields.to_spectral``/``to_physical``.

Fields are real, so their spectra are conjugate-symmetric and the columns
k2 = 0 .. N/2 of the FFT layout determine the rest.  ``forward`` keeps only
those columns (the half spectrum, shape (..., N, N/2 + 1)) and ``inverse``
maps them back with the real inverse transform (Frigo & Johnson, Proc. IEEE
93, 2005).  Both transform the last two axes, so a stack of planes along a
leading axis goes through in one call.

Symbols and masks are built and cached in the full FFT layout; ``half`` is
the view of one that multiplies a half spectrum.  The half layout holds
conjugate-symmetric content only.  On the k2 = 0 and k2 = N/2 columns the
real inverse drops an unpaired odd part, as taking ``.real`` of a complex
inverse did; but on the k1 = N/2 row it pairs each stored value with its
conjugate, so unpaired odd content there would come out as a spurious real
term.  Odd symbols (Riesz, first derivatives) therefore stay
``GridSpec.hermitian_part``-projected, which zeroes that content first.

``inverse_chunks`` batches many inverse transforms into a few calls without
holding them all: it gathers incoming half spectra into a buffer of at most
``CHUNK_BYTES`` and yields the physical planes one by one.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
from scipy import fft

# Input bytes handed to one batched inverse call.  On a 2-vCPU x86 VM a
# 1 MiB budget made the riesz experiment's Q-norm sweeps about 30% slower
# than this one and raised its peak memory by 2 MiB.
CHUNK_BYTES = 256 * 1024


def half_width(n: int) -> int:
    return n // 2 + 1


def half(full: np.ndarray) -> np.ndarray:
    """Half-spectrum view of an array in the full FFT layout."""
    return full[..., : half_width(full.shape[-1])]


def forward(values: np.ndarray) -> np.ndarray:
    """Unnormalized half spectrum of real planes over the last two axes."""
    return fft.rfft2(values)


def inverse(spec: np.ndarray, n: int) -> np.ndarray:
    """Real N x N planes from half spectra over the last two axes."""
    return fft.irfft2(spec, s=(n, n))


def inverse_chunks(spectra: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Physical planes of ``spectra`` in order, inverted in batches of at
    most CHUNK_BYTES of input (at least one plane per batch).

    Each spectrum is copied into the batch buffer when it arrives, so the
    caller may generate them lazily; each yielded plane is a view into its
    batch's output."""
    width = half_width(n)
    per = max(1, CHUNK_BYTES // (n * width * np.dtype(complex).itemsize))
    buf = np.empty((per, n, width), dtype=complex)
    filled = 0
    for spec in spectra:
        buf[filled] = spec
        filled += 1
        if filled == per:
            yield from inverse(buf, n)
            filled = 0
    if filled:
        yield from inverse(buf[:filled], n)
