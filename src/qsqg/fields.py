"""Grid, field, and trajectory containers for the discrete 2-torus.

Conventions, fixed once for the whole package:

* physical domain [0, L)^2 sampled on an N x N row-major lattice
  (axis 0 is x1, axis 1 is x2);
* frequency lattice xi = (2 pi / L) k with integer k in [-N/2, N/2)^2,
  stored in FFT layout, so the partial derivative along axis j acts as
  multiplication by i xi_j.

Every transform goes through ``qsqg.spectral``, an unnormalized real FFT
fhat(xi) = sum_x f(x) exp(-i xi . x) that keeps only the half spectrum:
columns k2 = 0 .. N/2 of the FFT layout, shape (N, N/2 + 1), the rest being
fixed by conjugate symmetry.  The frequency planes (xi, |xi|, the dealias
mask) are in the full layout and rebuilt on each access; symbols are cut
from them and only their half copies are cached (``operators._half_symbol``).
Odd symbols stay projected by ``GridSpec.hermitian_part``: the real inverse
drops unpaired odd content on the k2 = 0, N/2 columns as ``.real`` of
a complex inverse does, but on the k1 = N/2 row it would turn that content
into a spurious real term, so it must be zeroed before it is applied.

Operators that are homogeneous or singular at xi = 0 send the mean to zero,
and the norm estimators remove the mean on ingestion; constants are invisible
to every seminorm in this package.

This module owns exact amplitude scaling: ``scaled_values`` is a field times
2^-e (e its ``binary_exponent``), optionally centered, and ``unscaled`` scales
a result back by 2^e or raises NonFiniteError.  So every degree-one map (the
multipliers and norm estimators) is exact and finite at any finite amplitude.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, NonFiniteError

FILE_MAGIC = b"QSF1"

# |mean| above this (relative to the field scale) fails a mean-zero precondition
MEAN_TOL = 1e-10

# Kept fraction of the one-sided spectrum when a pointwise product is
# dealiased: the 2/3 rule (Orszag, J. Atmos. Sci. 28, 1971).
DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform N x N grid on the torus [0, L)^2."""

    side_points: int
    domain_length: float

    def __post_init__(self):
        n = self.side_points
        if not isinstance(n, (int, np.integer)) or n < 8 or n % 2:
            raise ValueError(f"side_points must be an even integer >= 8, got {n!r}")
        if not self.domain_length > 0:
            raise ValueError("domain_length must be positive")

    @property
    def n(self) -> int:
        return self.side_points

    @property
    def length(self) -> float:
        return self.domain_length

    @property
    def spacing(self) -> float:
        return self.domain_length / self.side_points

    @property
    def cell_area(self) -> float:
        return self.spacing ** 2

    @cached_property
    def coords(self) -> np.ndarray:
        """1-d physical coordinates, 0 <= x < L."""
        c = np.arange(self.n) * self.spacing
        c.setflags(write=False)
        return c

    @cached_property
    def signed_coords(self) -> np.ndarray:
        """Coordinates wrapped to the symmetric representative [-L/2, L/2)."""
        L = self.length
        c = (self.coords + L / 2) % L - L / 2
        c.setflags(write=False)
        return c

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer mode numbers k in FFT layout (0, 1, ..., -N/2, ..., -1),
        exact: ``fftfreq(n, d=1/n)`` misses integers at some N (N = 98)."""
        k = np.arange(self.n, dtype=float)
        k[self.n // 2:] -= self.n
        k.setflags(write=False)
        return k

    @property
    def xi(self) -> tuple[np.ndarray, np.ndarray]:
        """2-d frequency arrays (xi1, xi2), FFT layout, axis 0 = xi1."""
        base = (2 * np.pi / self.length) * self.wavenumbers
        return tuple(np.meshgrid(base, base, indexing="ij"))

    @property
    def xi_norm(self) -> np.ndarray:
        x1, x2 = self.xi
        return np.sqrt(x1 * x1 + x2 * x2)

    @property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask: |k_j| <= DEALIAS_FRACTION * N/2 on both axes."""
        cut = DEALIAS_FRACTION * self.n / 2
        k = np.abs(self.wavenumbers)
        keep1, keep2 = np.meshgrid(k <= cut, k <= cut, indexing="ij")
        return keep1 & keep2

    @cached_property
    def dealias_cutoff(self) -> int:
        """The c for which ``dealias_mask`` keeps exactly the modes whose mode
        numbers both lie in -c .. c."""
        return (int(np.count_nonzero(self.dealias_mask[0])) - 1) // 2

    def hermitian_part(self, symbol: np.ndarray) -> np.ndarray:
        """Project a lattice symbol onto the conjugate-symmetric part: the
        mean of the symbol and its reality partner, its conjugate sampled at
        -k mod N.

        Leaves genuinely Hermitian symbols untouched and zeroes the unpaired
        odd content on the Nyquist rows, which is what keeps multiplier
        output real on an even grid.
        """
        p = (-np.arange(self.n)) % self.n
        return 0.5 * (symbol + np.conj(symbol[np.ix_(p, p)]))


@dataclass(frozen=True)
class SpaceParams:
    """Admissible smoothness/dissipation pair (alpha, beta).

    Requires alpha > 0, max(alpha, 1/2) < beta < 1 and alpha + beta >= 1.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not a > 0:
            raise ValueError(f"alpha must be positive, got {a}")
        if not max(a, 0.5) < b < 1:
            raise ValueError(
                f"beta must satisfy max(alpha, 1/2) < beta < 1, got alpha={a}, beta={b}"
            )
        if a + b - 1 < 0:
            raise ValueError(f"need alpha + beta >= 1, got alpha={a}, beta={b}")


def _frozen_array(values, shape) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("field values must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class RealField:
    """Immutable real scalar field sampled on a GridSpec lattice."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        object.__setattr__(self, "values", _frozen_array(self.values, (n, n)))

    # -- small arithmetic helpers (same grid enforced) -------------------
    def _check(self, other: "RealField") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "RealField") -> "RealField":
        self._check(other)
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        self._check(other)
        return RealField(self.grid, self.values - other.values)

    def __neg__(self) -> "RealField":
        return RealField(self.grid, -self.values)

    def __mul__(self, scalar: float) -> "RealField":
        return RealField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def mean(self) -> float:
        v, e = scaled_values(self)
        return float(np.ldexp(v.mean(), e))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def require_mean_zero(self, what: str) -> None:
        mean = self.mean()
        if not abs(mean) <= MEAN_TOL * max(1.0, self.max_abs()):
            raise ValueError(f"{what} requires a mean-zero field (mean = {mean:.3e})")

    @classmethod
    def zero(cls, grid: GridSpec) -> "RealField":
        return cls(grid, np.zeros((grid.n, grid.n)))


def binary_exponent(x: float) -> int:
    """The binary exponent e of x (|x| < 2^e), clamped to [-1022, 1000], so
    that |x| 2^-e < 2^24 and 2^-e is a normal float whose products with the
    Riesz symbols (nonzero entries above 2^-22 for N up to 2^21) are normal
    too.  Multiplying by 2^-e, or by a symbol scaled by it, is then exact,
    as ``np.ldexp`` would be, and as fast as any product."""
    return min(max(int(np.frexp(x)[1]), -1022), 1000)


def scaled_values(f: RealField, centered: bool = False,
                  exponent: "int | None" = None) -> tuple[np.ndarray, int]:
    """f's values times 2^-e, and e: ``binary_exponent(f.max_abs())``, or
    ``exponent`` (one exponent for all the snapshots of a trajectory, say).
    ``centered`` then subtracts the mean of the scaled values, which is
    2^-e times the mean of f.  Neither step can overflow."""
    e = binary_exponent(f.max_abs()) if exponent is None else exponent
    v = f.values * math.ldexp(1.0, -e)
    if centered:
        v -= v.mean()
    return v, e


def unscaled(value, e: int):
    """value * 2^e of a float (by ``math.ldexp``, 0.2 us against 3 us on the
    array path) or, in place, of an array; NonFiniteError if not finite."""
    if isinstance(value, np.ndarray):
        with np.errstate(over="ignore"):
            value = np.ldexp(value, e, out=value)
        finite = np.isfinite(value).all()
    else:
        try:
            value = math.ldexp(value, e)
        except OverflowError:
            value = math.inf
        finite = math.isfinite(value)
    if not finite:
        raise NonFiniteError("value overflows")
    return value


def field_from_function(grid: GridSpec, fn) -> RealField:
    """Sample fn(x1, x2) on the lattice (meshgrid arrays, axis 0 = x1)."""
    x1, x2 = np.meshgrid(grid.coords, grid.coords, indexing="ij")
    return RealField(grid, np.asarray(fn(x1, x2), dtype=float))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of a field at strictly increasing positive times."""

    times: np.ndarray
    snapshots: tuple[RealField, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if t.ndim == 1 and len(t) != len(self.snapshots):
            raise ValueError("times and snapshots must be matching sequences")
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("times must be a non-empty 1-d sequence")
        if not (t[0] > 0 and np.all(np.diff(t) > 0)):
            raise ValueError("times must be strictly increasing and positive")
        g = self.snapshots[0].grid
        for s in self.snapshots[1:]:
            if s.grid != g:
                raise GridMismatchError("trajectory snapshots live on different grids")
        t.setflags(write=False)

    @property
    def grid(self) -> GridSpec:
        return self.snapshots[0].grid

    def __len__(self) -> int:
        return len(self.snapshots)

    def _check(self, other: "Trajectory") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("trajectories live on different grids")
        if not np.array_equal(self.times, other.times):
            raise ValueError("trajectories have different time grids")

    def __add__(self, other: "Trajectory") -> "Trajectory":
        self._check(other)
        return Trajectory(self.times, tuple(a + b for a, b in zip(self.snapshots, other.snapshots)))

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        self._check(other)
        return Trajectory(self.times, tuple(a - b for a, b in zip(self.snapshots, other.snapshots)))


# -- field file format -----------------------------------------------------
#
# bytes 0..3   magic "QSF1"
# bytes 4..7   little-endian uint32 N
# bytes 8..15  little-endian float64 L
# then         N*N little-endian float64 physical values, row-major


def write_field(f: RealField, path: "str | Path") -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(FILE_MAGIC)
        fh.write(struct.pack("<I", f.grid.n))
        fh.write(struct.pack("<d", f.grid.length))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path: "str | Path") -> RealField:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != FILE_MAGIC:
        raise ValueError(f"{path} is not a field file (bad magic {raw[:4]!r})")
    if len(raw) < 16:
        raise ValueError(f"{path}: {len(raw)} bytes is shorter than the 16-byte header")
    n = struct.unpack("<I", raw[4:8])[0]
    length = struct.unpack("<d", raw[8:16])[0]
    expected = 16 + 8 * n * n
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for N={n}, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", offset=16).reshape(n, n)
    return RealField(GridSpec(int(n), float(length)), values)
