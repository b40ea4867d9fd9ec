"""Real-data 2-D transforms.  Every transform in the package goes through
here, and no other module names ``numpy.fft``.

Fields are real, so their spectra are conjugate-symmetric and the columns
k2 = 0 .. N/2 of the FFT layout determine the rest.  ``forward`` keeps only
those columns (the half spectrum, shape (..., N, N/2 + 1)) and ``inverse``
maps them back with the real inverse transform (Frigo & Johnson, Proc. IEEE
93, 2005).  Both transform the last two axes, so a stack of planes along a
leading axis goes through in one call, and a stacked call gives each plane
the same doubles as a call on that plane alone.

The transforms are ``numpy.fft``'s (numpy >= 2.0 ships the C++ pocketfft
that ``scipy.fft`` also uses, and for power-of-two N the two return the same
doubles), so importing the package loads no scipy module.  ``forward``
hands ``rfft2`` one output array that both of its stages write into.

Symbols and masks are built in the full FFT layout and not kept; ``half``
cuts the columns that multiply a half spectrum.  The package's one symbol
cache, ``operators._half_symbol``, holds contiguous half copies, and every
multiply reads one.  The half layout holds conjugate-symmetric content
only.  On the k2 = 0 and k2 = N/2 columns the real inverse drops an
unpaired odd part, as taking ``.real`` of a complex inverse did; but on the
k1 = N/2 row it pairs each stored value with its conjugate, so unpaired odd
content there would come out as a spurious real term.  Odd symbols (Riesz,
first derivatives) therefore stay ``GridSpec.hermitian_part``-projected,
which zeroes that content first.

``forward`` and ``inverse_into`` take an optional ``width``: their column
stage (the transform along the rows axis) then runs on the columns
k2 < width only.  The inverse requires the other columns to be zero and the
forward returns them as zeros, so the kept columns are the doubles of the
2-D transform (a pruned FFT: Markel, IEEE Trans. Audio Electroacoust. 19,
1971).  The nonlinear density passes the 2/3 rule's width, which skips
about a third of the columns.

``inverse_into`` is ``inverse`` without allocation: it transforms
caller-held half spectra in place and writes the planes into a caller-held
real buffer, so a loop that reuses the two allocates nothing per call.
``forward`` takes a caller-held output the same way (``out``).
"""
from __future__ import annotations

import numpy as np


def half_width(n: int) -> int:
    return n // 2 + 1


def half(full: np.ndarray) -> np.ndarray:
    """Half-spectrum view of an array in the full FFT layout."""
    return full[..., : half_width(full.shape[-1])]


def forward(values: np.ndarray, width: int | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized half spectrum of real planes over the last two axes,
    written into ``out`` (shape values.shape[:-1] + (N/2 + 1,)) when given
    and returned.

    With ``width``, the column stage runs on columns 0 .. width - 1 only and
    the columns from ``width`` on are returned as zeros; the kept columns
    are ``rfft2``'s doubles, since these are its two stages."""
    if out is None:
        out = np.empty(values.shape[:-1] + (half_width(values.shape[-1]),), dtype=complex)
    if width is None:
        return np.fft.rfft2(values, out=out)
    np.fft.rfft(values, axis=-1, out=out)
    cols = out[..., :width]
    np.fft.fft(cols, axis=-2, out=cols)
    out[..., width:] = 0.0
    return out


def inverse(spec: np.ndarray, n: int) -> np.ndarray:
    """Real N x N planes from half spectra over the last two axes."""
    return np.fft.irfft2(spec, s=(n, n))


def inverse_into(spec: np.ndarray, out: np.ndarray, width: int | None = None) -> np.ndarray:
    """``inverse`` of the half spectra ``spec`` written into ``out`` (shape
    spec.shape[:-1] + (N,)) and returned; ``spec`` is overwritten.

    These are the two stages of ``irfft2``, so the planes are its doubles.
    With ``width``, the columns of ``spec`` from ``width`` on must be zero:
    the column stage skips them, as it would map them to zeros."""
    cols = spec if width is None else spec[..., :width]
    np.fft.ifft(cols, axis=-2, out=cols)
    # not irfft2(out=): on numpy 2.4.6 it returns wrong values and not ``out``
    return np.fft.irfft(spec, out.shape[-1], axis=-1, out=out)

