import struct
import warnings

import numpy as np
import pytest

from qsqg import (
    GridMismatchError,
    GridSpec,
    RealField,
    SpaceParams,
    Trajectory,
    field_from_function,
    read_field,
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

    def test_wavenumbers_layout(self, grid16):
        # index k holds frequency k for k < N/2, then the negative ones
        k = grid16.wavenumbers
        assert k[0] == 0
        assert k[1] == 1 * 2 * np.pi / L
        assert k[8] == -8 * 2 * np.pi / L
        assert k[15] == -1 * 2 * np.pi / L

    def test_wavenumbers_are_integers(self):
        for n in range(8, 1025, 2):
            k = GridSpec(n, L).wavenumbers
            assert np.array_equal(k, np.rint(k)), n
            assert k.min() == -n // 2 and k.max() == n // 2 - 1, n

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_wavenumbers_equal_fftfreq_at_powers_of_two(self, n):
        # every symbol is built from the wavenumbers, so these N's symbols
        # and artifacts are those of the fftfreq construction
        grid = GridSpec(n, L)
        assert np.array_equal(grid.wavenumbers, np.fft.fftfreq(n, d=1.0 / n))

    @pytest.mark.parametrize("n", [474, 498])
    def test_dealias_mask_keeps_the_cut(self, n):
        # |k| = N/3 = (2/3)(N/2) is kept; fftfreq read 158.00000000000003 at 474
        grid = GridSpec(n, L)
        kept = np.abs(grid.wavenumbers[grid.dealias_mask[:, 0]])
        assert kept.max() == n // 3
        assert grid.dealias_cutoff == n // 3

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

    def test_mean_zero_gate_at_overflowing_amplitude(self, grid16):
        # finite data whose plain sum overflows to inf - inf = NaN: the gate
        # still passes a mean-zero field, fails one with a mean, and warns not
        f = 5e306 * field_from_function(grid16, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
        g = 5e306 * field_from_function(grid16, lambda x1, x2: 1 + np.sin(x1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f.require_mean_zero("test")
            with pytest.raises(ValueError):
                g.require_mean_zero("test")

    def test_field_from_function_samples_grid(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: x1 + 10 * x2)
        x = grid16.coords
        assert f.values[2, 3] == pytest.approx(x[2] + 10 * x[3])


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


class TestFieldIO:
    def test_round_trip_bitwise(self, smooth32, tmp_path):
        path = tmp_path / "f.qsf"
        write_field(smooth32, path)
        back = read_field(path)
        assert np.array_equal(back.values, smooth32.values)
        assert back.grid == smooth32.grid

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

    # blob[:end]: one value short, then cuts inside the 16-byte header
    @pytest.mark.parametrize("end", [-8, 12, 6, 0])
    def test_rejects_truncation(self, smooth32, tmp_path, end):
        path = tmp_path / "f.qsf"
        write_field(smooth32, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:end])
        with pytest.raises(ValueError):
            read_field(path)
