import struct

import numpy as np
import pytest

from qsqg import (
    GridMismatchError,
    GridSpec,
    RealField,
    SpaceParams,
    SpectralField,
    SymmetryError,
    Trajectory,
    field_from_function,
    read_field,
    to_physical,
    to_spectral,
    write_field,
)
from qsqg.fields import FILE_MAGIC

L = 2 * np.pi


class TestGridSpec:
    def test_basic_properties(self, grid32):
        assert grid32.n == 32
        assert grid32.length == L
        assert grid32.spacing == pytest.approx(L / 32)
        assert grid32.cell_area == pytest.approx((L / 32) ** 2)
        assert grid32.coords.shape == (32,)
        assert grid32.coords[0] == 0.0

    @pytest.mark.parametrize("n", [7, 9, 15, 2, 0, -4])
    def test_rejects_bad_side_counts(self, n):
        with pytest.raises(ValueError):
            GridSpec(n, L)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            GridSpec(16, 0.0)
        with pytest.raises(ValueError):
            GridSpec(16, -1.0)

    def test_rejects_bad_dealias_fraction(self):
        with pytest.raises(ValueError):
            GridSpec(16, L, dealias_fraction=0.0)
        with pytest.raises(ValueError):
            GridSpec(16, L, dealias_fraction=1.5)

    def test_wavenumbers_layout(self, grid16):
        # index k holds frequency k for k < N/2, then the negative ones
        k = grid16.wavenumbers
        assert k[0] == 0
        assert k[1] == 1 * 2 * np.pi / L
        assert k[8] == -8 * 2 * np.pi / L
        assert k[15] == -1 * 2 * np.pi / L

    def test_signed_coords_cover_half_open_box(self, grid16):
        d = grid16.signed_coords
        assert d.min() == -L / 2
        assert d.max() == pytest.approx(L / 2 - grid16.spacing, rel=1e-14)

    def test_dealias_mask_two_thirds(self, grid16):
        mask = grid16.dealias_mask
        k = np.rint(grid16.wavenumbers * L / (2 * np.pi)).astype(int)
        cut = (2 / 3) * (16 / 2)
        for i in range(16):
            for j in range(16):
                assert mask[i, j] == ((abs(k[i]) <= cut) and (abs(k[j]) <= cut))


class TestSpaceParams:
    def test_default_pair_admissible(self):
        SpaceParams(0.25, 0.75)

    @pytest.mark.parametrize(
        "a,b",
        [
            (0.0, 0.75),     # alpha must be positive
            (-0.1, 0.75),
            (0.25, 0.5),     # beta must exceed 1/2
            (0.25, 1.0),     # beta must stay below 1
            (0.8, 0.7),      # beta must exceed alpha
            (0.1, 0.6),      # alpha + beta >= 1
        ],
    )
    def test_rejects_inadmissible_pairs(self, a, b):
        with pytest.raises(ValueError):
            SpaceParams(a, b)


class TestRealField:
    def test_shape_and_finiteness_validation(self, grid16):
        with pytest.raises(ValueError):
            RealField(grid16, np.zeros((8, 8)))
        bad = np.zeros((16, 16))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError):
            RealField(grid16, bad)
        bad[3, 4] = np.inf
        with pytest.raises(ValueError):
            RealField(grid16, bad)

    def test_values_are_immutable_copies(self, grid16):
        src = np.ones((16, 16))
        f = RealField(grid16, src)
        src[0, 0] = 5.0
        assert f.values[0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            f.values[0, 0] = 2.0

    def test_arithmetic(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        g = field_from_function(grid16, lambda x1, x2: np.cos(x2))
        h = 2.0 * f + g - f
        expected = f.values + g.values
        np.testing.assert_allclose(h.values, expected, atol=1e-15)
        np.testing.assert_allclose((-f).values, -f.values)

    def test_grid_mismatch(self, grid16, grid32):
        f = RealField.zero(grid16)
        g = RealField.zero(grid32)
        with pytest.raises(GridMismatchError):
            _ = f + g

    def test_mean_zero_gate(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        f.require_mean_zero("test")
        g = RealField(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError):
            g.require_mean_zero("test")

    def test_field_from_function_samples_grid(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: x1 + 10 * x2)
        x = grid16.coords
        assert f.values[2, 3] == pytest.approx(x[2] + 10 * x[3])


class TestSpectralField:
    def test_forward_transform_convention(self, grid32):
        # hat f(xi) = sum f(x) exp(-i xi.x) h^2; sin(x1) puts -i L^2/2 at (1,0)
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        s = to_spectral(f)
        np.testing.assert_allclose(s.coefficients[1, 0], -1j * L**2 / 2, atol=1e-10)
        np.testing.assert_allclose(s.coefficients[-1, 0], 1j * L**2 / 2, atol=1e-10)

    def test_round_trip(self, smooth32):
        back = to_physical(to_spectral(smooth32))
        err = np.abs(back.values - smooth32.values).max()
        assert err <= 1e-13

    def test_rejects_conjugate_asymmetry(self, grid16):
        coeff = np.zeros((16, 16), dtype=complex)
        coeff[1, 2] = 1.0 + 0.5j   # no matching conjugate at (-1, -2)
        with pytest.raises(SymmetryError):
            SpectralField(grid16, coeff)

    def test_accepts_hermitian_spectrum(self, grid16):
        coeff = np.zeros((16, 16), dtype=complex)
        coeff[1, 2] = 1.0 + 0.5j
        coeff[-1, -2] = 1.0 - 0.5j
        SpectralField(grid16, coeff)


class TestTrajectory:
    def test_requires_increasing_positive_times(self, grid16):
        f = RealField.zero(grid16)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), (f, f))
        with pytest.raises(ValueError):
            Trajectory(np.array([1.0, 1.0]), (f, f))
        with pytest.raises(ValueError):
            Trajectory(np.array([2.0, 1.0]), (f, f))

    def test_length_mismatch(self, grid16):
        f = RealField.zero(grid16)
        with pytest.raises(ValueError):
            Trajectory(np.array([1.0, 2.0]), (f,))

    def test_algebra_requires_equal_times(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        traj = Trajectory(np.array([0.5, 1.0]), (f, f))
        for other in (Trajectory(traj.times * (1 + 1e-9), (f, f)),
                      Trajectory(np.array([0.5]), (f,))):
            with pytest.raises(ValueError):
                traj - other
            with pytest.raises(ValueError):
                traj + other

    def test_algebra(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(x1))
        t = np.array([0.5, 1.0])
        traj = Trajectory(t, (f, 2.0 * f))
        double = traj + traj
        np.testing.assert_allclose(double.snapshots[1].values, 4 * f.values)
        diff = double - traj
        np.testing.assert_allclose(diff.snapshots[0].values, f.values)
        np.testing.assert_allclose(traj.scaled(3.0).snapshots[0].values, 3 * f.values)


class TestFieldIO:
    def test_round_trip_bitwise(self, smooth32, tmp_path):
        path = tmp_path / "f.qsf"
        write_field(smooth32, path)
        back = read_field(path)
        assert np.array_equal(back.values, smooth32.values)
        assert back.grid.n == smooth32.grid.n
        assert back.grid.length == smooth32.grid.length

    def test_layout(self, grid16, tmp_path):
        f = RealField(grid16, np.arange(256, dtype=float).reshape(16, 16) / 256.0)
        f = f - RealField(grid16, np.full((16, 16), f.mean()))
        path = tmp_path / "f.qsf"
        write_field(f, path)
        blob = path.read_bytes()
        assert blob[:4] == FILE_MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == 16
        assert struct.unpack("<d", blob[8:16])[0] == L
        grid_vals = np.frombuffer(blob[16:], dtype="<f8").reshape(16, 16)
        assert np.array_equal(grid_vals, f.values)

    def test_rejects_bad_magic(self, smooth32, tmp_path):
        path = tmp_path / "f.qsf"
        write_field(smooth32, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            read_field(path)

    def test_rejects_truncation(self, smooth32, tmp_path):
        path = tmp_path / "f.qsf"
        write_field(smooth32, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            read_field(path)
