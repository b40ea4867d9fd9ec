import numpy as np
import pytest
from scipy.integrate import quad

from qsqg import BoxSweepConfig, CarlesonBox, GridSpec
from qsqg.sweep import (
    _mask_spectrum,
    best_center,
    box_sums,
    geometric_ladder,
    mask_point_count,
    power_weight,
    spectrum_box_sums,
    trajectory_weights,
)

L = 2 * np.pi


class TestBoxSweepConfig:
    def test_defaults(self):
        cfg = BoxSweepConfig()
        assert cfg.num_radii == 3
        assert cfg.time_nodes == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxSweepConfig(num_radii=2)
        with pytest.raises(ValueError):
            BoxSweepConfig(time_nodes=8)

    def test_radii_are_dyadic(self, grid32):
        cfg = BoxSweepConfig(num_radii=4)
        assert cfg.radii(grid32) == [L / 2, L / 4, L / 8, L / 16]

    def test_strides_halve_radius(self, grid32):
        cfg = BoxSweepConfig()
        assert [cfg.stride(grid32, m) for m in (1, 2, 3)] == [8, 4, 2]

    def test_validate_for_rejects_coarse_grids(self):
        cfg = BoxSweepConfig(num_radii=5)
        cfg.validate_for(GridSpec(64, L))
        with pytest.raises(ValueError):
            cfg.validate_for(GridSpec(32, L))  # needs N divisible by 64

    def test_box_requires_positive_radius(self):
        with pytest.raises(ValueError):
            CarlesonBox((0.0, 0.0), 0.0)


class TestBoxSums:
    def test_matches_direct_loop(self, grid16):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((16, 16))
        d = grid16.signed_coords
        d1, d2 = np.meshgrid(d, d, indexing="ij")
        for kind, mask in (
            ("ball", d1**2 + d2**2 < (L / 4) ** 2),
            ("cube", (np.abs(d1) < L / 4) & (np.abs(d2) < L / 4)),
        ):
            sums = box_sums(vals, grid16, L / 4, kind)
            for ci in range(0, 16, 4):
                for cj in range(0, 16, 4):
                    direct = (np.roll(vals, (-ci, -cj), axis=(0, 1)) * mask).sum()
                    assert sums[ci, cj] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_point_count(self, grid16):
        # cube of half-edge L/4 on N=16: offsets -3..3 per axis
        assert mask_point_count(grid16, L / 4, "cube") == 49


    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("kind", ["ball", "cube"])
    def test_point_count_is_the_mask_spectrum_dc_term(self, n, kind):
        # counted on the indicator: the DC term of the spectrum box_sums uses,
        # at every radius the deepest sweep of the grid has
        grid = GridSpec(n, L)
        radii = BoxSweepConfig(int(np.log2(n)) - 1).radii(grid)
        for r in radii:
            assert mask_point_count(grid, r, kind) == round(_mask_spectrum(grid, r, kind)[0, 0].real)

    def test_spectrum_box_sums_are_box_sums(self, grid16):
        vals = np.random.default_rng(6).standard_normal((16, 16))
        spec = np.fft.rfft2(vals)
        kept = spec.copy()
        for r in (L / 2, L / 4, L / 8):
            got = spectrum_box_sums(spec, grid16, r, "ball")
            assert got.tobytes() == box_sums(vals, grid16, r, "ball").tobytes()
        assert spec.tobytes() == kept.tobytes()   # one spectrum serves every radius


class TestBestCenter:
    def test_lexicographic_tie_break(self, grid16):
        vals = np.zeros((16, 16))
        vals[4, 8] = 7.0
        vals[8, 4] = 7.0  # same value, later in row-major order
        val, center = best_center(vals, grid16, 4)
        assert val == 7.0
        assert center == (grid16.coords[4], grid16.coords[8])

    def test_ignores_off_lattice_points(self, grid16):
        vals = np.zeros((16, 16))
        vals[3, 3] = 99.0  # not on the stride-4 sublattice
        vals[8, 8] = 1.0
        val, center = best_center(vals, grid16, 4)
        assert val == 1.0
        assert center == (grid16.coords[8], grid16.coords[8])


class TestTimeQuadrature:
    def test_ladder_shape(self):
        lows, highs, mids = geometric_ladder(2.0, 16)
        assert len(lows) == len(highs) == len(mids) == 15
        assert highs[-1] == 2.0
        np.testing.assert_allclose(lows[1:], highs[:-1])   # contiguous cells
        np.testing.assert_allclose(highs / lows, 2**0.25)  # geometric spacing
        np.testing.assert_allclose(mids, 0.5 * (lows + highs))

    def test_ladder_nesting(self):
        # a taller ladder keeps every cell of the short one, adding below
        l16 = geometric_ladder(2.0, 16)
        l24 = geometric_ladder(2.0, 24)
        np.testing.assert_allclose(l24[0][-15:], l16[0])
        np.testing.assert_allclose(l24[1][-15:], l16[1])
        assert l24[0][0] < l16[0][0]

    def test_power_weight_matches_quadrature(self):
        lo, hi = 0.3, 1.7
        for e in (0.0, 1 / 3, 0.9, -1.0):
            exact = power_weight(np.array([lo]), np.array([hi]), e)[0]
            num, _ = quad(lambda t: t**-e, lo, hi)
            assert exact == pytest.approx(num, rel=1e-10)

    def test_power_weight_rejects_non_integrable(self):
        with pytest.raises(ValueError):
            power_weight(np.array([0.1]), np.array([1.0]), 1.0)

    def test_trajectory_weights_plain_lengths(self):
        # exponent 0: weights are the cell lengths, head (0, t1] included
        w, partial = trajectory_weights(np.array([1.0, 2.0, 4.0]), 4.0, 0.0)
        np.testing.assert_allclose(w, [1.0, 1.0, 2.0])
        assert not partial

    def test_trajectory_weights_clip_to_upper(self):
        w, partial = trajectory_weights(np.array([1.0, 2.0, 4.0]), 1.5, 0.0)
        np.testing.assert_allclose(w, [1.0, 0.5, 0.0])
        assert not partial

    def test_trajectory_weights_flag_short_data(self):
        w, partial = trajectory_weights(np.array([1.0, 2.0]), 4.0, 0.0)
        np.testing.assert_allclose(w, [1.0, 1.0])
        assert partial

    def test_trajectory_weights_singular_exponent(self):
        t = np.array([0.5, 1.0, 2.0])
        w, _ = trajectory_weights(t, 2.0, 1 / 3)
        total = w.sum()
        num, _ = quad(lambda s: s ** (-1 / 3), 0, 2.0)
        assert total == pytest.approx(num, rel=1e-12)
