import numpy as np
import pytest

from qsqg import (
    GridSpec,
    RealField,
    SpaceParams,
    block_levels,
    field_from_function,
    fractional_laplacian,
    kernel_fields,
    partial_derivative,
    riesz_transform,
    x_norm,
)
from qsqg import spectral
from qsqg.fields import Trajectory
from qsqg.experiments import wellposedness_data
from qsqg.operators import (
    _annulus_mask,
    _decays,
    _half_symbol,
    _propagators,
    apply_lattice_symbol,
    derivative_symbol,
    dissipation_symbol,
    mixed_derivative_symbol,
    riesz_symbol,
)
from qsqg.solver import SolverConfig, TimeGrid, picard_solve

from oracles import dealias_field, heat_semigroup, heat_symbol, sqg_velocity

L = 2 * np.pi


def max_err(f, g):
    return np.abs(f.values - g.values).max()


class TestApplyMultiplier:
    """``apply_lattice_symbol``, the one multiplier engine behind every operator."""

    def test_identity_symbol(self, smooth32):
        out = apply_lattice_symbol(smooth32, np.ones((32, 32)))
        assert max_err(out, smooth32) <= 1e-13

    def test_odd_imaginary_symbol_is_accepted(self, smooth32):
        # i xi_1 is Hermitian (conj at -xi) off the unpaired Nyquist row: the
        # projection keeps it there and zeroes only that row
        grid = smooth32.grid
        raw = 1j * grid.xi[0]
        kept = grid.hermitian_part(raw)
        nyquist = grid.n // 2
        assert np.array_equal(np.delete(kept, nyquist, axis=0), np.delete(raw, nyquist, axis=0))
        assert not kept[nyquist].any()
        assert max_err(apply_lattice_symbol(smooth32, kept), partial_derivative(smooth32, 1)) <= 1e-12

    def test_homogeneous_symbol_with_zero_mode_override(self, smooth32):
        inv = dissipation_symbol(smooth32.grid, -1.0)   # |xi|^-1, zero mode 0
        out = apply_lattice_symbol(smooth32, inv)
        # |xi|^-1 sin(x1) = sin(x1)
        f = field_from_function(smooth32.grid, lambda a, b: np.sin(a))
        assert max_err(apply_lattice_symbol(f, inv), f) <= 1e-12
        assert abs(out.mean()) <= 1e-12

    @pytest.mark.parametrize("op, axis", [(riesz_transform, 1), (riesz_transform, 2),
                                          (partial_derivative, 1), (partial_derivative, 2)])
    def test_homogeneous_where_the_transform_overflows(self, grid16, op, axis):
        # the plain spectrum of 5e306 (sin x1 + cos 2 x2) overflows; the
        # scaled one does not, and the output is 5e306 times the unit one
        unit = op(wellposedness_data(grid16), axis).values
        huge = op(5e306 * wellposedness_data(grid16), axis).values
        assert np.isfinite(huge).all()
        assert np.abs(huge - 5e306 * unit).max() <= 1e-12 * 5e306 * np.abs(unit).max()

    def test_composition_of_multipliers(self, smooth32):
        # (i xi1)(i xi2) applied as one symbol equals the two derivatives in turn
        a = apply_lattice_symbol(smooth32, mixed_derivative_symbol(smooth32.grid, 1, 1))
        b = partial_derivative(partial_derivative(smooth32, 1), 2)
        assert max_err(a, b) <= 1e-12


class TestFractionalLaplacian:
    def test_gamma_zero_is_identity(self, smooth32):
        assert max_err(fractional_laplacian(smooth32, 0.0), smooth32) == 0.0

    def test_single_mode_eigenvalue(self, grid32):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        # |xi| = 1 so every power acts as the identity on this mode
        assert max_err(fractional_laplacian(f, 0.5), f) <= 1e-13
        g = field_from_function(grid32, lambda x1, x2: np.cos(2 * x2))
        out = fractional_laplacian(g, 0.5)
        np.testing.assert_allclose(out.values, 2.0 * g.values, atol=1e-12)

    def test_power_additivity(self, smooth32):
        a = fractional_laplacian(fractional_laplacian(smooth32, 0.3), 0.45)
        b = fractional_laplacian(smooth32, 0.75)
        assert max_err(a, b) <= 1e-12

    def test_negative_power_requires_mean_zero(self, grid16):
        f = RealField(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError):
            fractional_laplacian(f, -0.5)


class TestRieszTransform:
    def test_single_mode(self, grid32):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        expected = field_from_function(grid32, lambda x1, x2: np.cos(x1))
        assert max_err(riesz_transform(f, 1), expected) <= 1e-12
        assert max_err(riesz_transform(f, 2), RealField.zero(grid32)) <= 1e-13

    def test_squares_sum_to_minus_identity(self, smooth32):
        rr = riesz_transform(riesz_transform(smooth32, 1), 1) + riesz_transform(
            riesz_transform(smooth32, 2), 2
        )
        assert np.abs(rr.values + smooth32.values).max() <= 1e-12

    def test_axis_validation(self, smooth32):
        with pytest.raises(ValueError):
            riesz_transform(smooth32, 0)
        with pytest.raises(ValueError):
            riesz_transform(smooth32, 3)

    def test_requires_mean_zero(self, grid16):
        f = RealField(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError):
            riesz_transform(f, 1)


class TestHeatSemigroup:
    def test_composition_law(self, smooth32, params):
        a = heat_semigroup(heat_semigroup(smooth32, 0.1, params), 0.25, params)
        b = heat_semigroup(smooth32, 0.35, params)
        assert max_err(a, b) <= 1e-12

    def test_t_zero_is_identity(self, smooth32, params):
        assert max_err(heat_semigroup(smooth32, 0.0, params), smooth32) == 0.0

    def test_negative_time_rejected(self, smooth32, params):
        with pytest.raises(ValueError):
            heat_semigroup(smooth32, -0.1, params)

    def test_l2_contraction(self, smooth32, params):
        out = heat_semigroup(smooth32, 0.4, params)
        assert np.sqrt((out.values**2).sum()) <= np.sqrt((smooth32.values**2).sum())

    def test_commutes_with_fractional_laplacian(self, smooth32, params):
        a = heat_semigroup(fractional_laplacian(smooth32, 0.4), 0.2, params)
        b = fractional_laplacian(heat_semigroup(smooth32, 0.2, params), 0.4)
        assert max_err(a, b) <= 1e-12

    def test_single_mode_decay_rate(self, grid32, params):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        out = heat_semigroup(f, 0.7, params)
        np.testing.assert_allclose(out.values, np.exp(-0.7) * f.values, atol=1e-13)


class TestSqgVelocity:
    def test_components_are_rotated_riesz(self, smooth32):
        u1, u2 = sqg_velocity(smooth32)
        assert max_err(u1, -1.0 * riesz_transform(smooth32, 2)) == 0.0
        assert max_err(u2, riesz_transform(smooth32, 1)) == 0.0

    def test_divergence_free(self, smooth32):
        u1, u2 = sqg_velocity(smooth32)
        div = partial_derivative(u1, 1) + partial_derivative(u2, 2)
        assert np.abs(div.values).max() <= 1e-12 * smooth32.max_abs()


class TestDealias:
    def test_high_modes_removed(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.cos(7 * x1))
        out = dealias_field(f)
        assert out.max_abs() <= 1e-13

    def test_low_modes_preserved(self, grid16):
        f = field_from_function(grid16, lambda x1, x2: np.sin(3 * x1) + np.cos(2 * x2))
        assert max_err(dealias_field(f), f) <= 1e-13


class TestLittlewoodPaley:
    """The dyadic annuli behind the block norms and their Wiener bound."""

    def test_blocks_partition_mean_free_part(self, smooth32):
        # every nonzero mode lies in exactly one annulus, the zero mode in none
        grid = smooth32.grid
        count = sum(_annulus_mask(grid, level).astype(int) for level in block_levels(grid))
        want = np.ones((grid.n, grid.n), dtype=int)
        want[0, 0] = 0
        assert np.array_equal(count, want)

    def test_single_mode_lands_in_its_annulus(self, grid32):
        # cos(2 x1) holds the modes (2, 0) and (-2, 0)
        for level in block_levels(grid32):
            mask = _annulus_mask(grid32, level)
            assert mask[2, 0] == mask[-2, 0] == (level == 1)  # 2 <= |xi| < 4


class TestKernels:
    def test_unit_mass(self, grid32, params):
        heat, _, _ = kernel_fields(0.5, params, grid32)
        assert heat.values.sum() * grid32.cell_area == pytest.approx(1.0, abs=1e-13)

    def test_periodized_gaussian_oracle(self, grid64):
        # classical heat kernel at beta = 1: exact periodized Gaussian
        # (N = 64 keeps the spectral tail exp(-t (N/2)^2) below 1e-20)
        for t in (0.05, (L / 8) ** 2):
            sym = heat_symbol(grid64, 1.0, t)
            kernel = np.fft.ifft2(sym).real / grid64.cell_area
            d = grid64.signed_coords
            d1, d2 = np.meshgrid(d, d, indexing="ij")
            oracle = np.zeros_like(kernel)
            for m1 in range(-4, 5):
                for m2 in range(-4, 5):
                    r2 = (d1 + L * m1) ** 2 + (d2 + L * m2) ** 2
                    oracle += np.exp(-r2 / (4 * t)) / (4 * np.pi * t)
            assert np.abs(kernel - oracle).max() <= 1e-8

    def test_gradient_kernel_decay_is_finite(self, grid64, params):
        _, (g1, g2), _ = kernel_fields(1.0, params, grid64)
        d = grid64.signed_coords
        radius = np.hypot(*np.meshgrid(d, d, indexing="ij"))
        shift = 1.0 ** (1 / (2 * params.beta))
        weighted = (shift + radius) ** 3 * np.hypot(g1.values, g2.values)
        assert np.isfinite(weighted).all()
        assert weighted.max() > 0

    def test_riesz_smoothed_kernel_antisymmetric(self, grid32, params):
        _, _, kj = kernel_fields(1.0, params, grid32)
        flipped = np.roll(kj.values[::-1, :], 1, axis=0)  # x1 -> -x1 on the torus
        np.testing.assert_allclose(flipped, -kj.values, atol=1e-12)


class TestSemigroupCore:
    """``_decays`` and ``_propagators`` gather exp and expm1 over the rate
    levels; every plane must be the full-plane formula's, bit for bit."""

    BETA = 0.75

    @staticmethod
    def time_sets():
        tg = TimeGrid(1.0, 32)
        cells = np.diff(tg.times, prepend=0.0)
        return {
            "picard cells": cells,
            "reference substeps": cells / 4,   # reference_refine = 4
            "node times": tg.times,
            "half node times": 0.5 * tg.times,
        }

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_decays_and_propagators_equal_full_plane(self, n):
        grid = GridSpec(n, L)
        lam = spectral.half(dissipation_symbol(grid, 2 * self.BETA))
        safe = np.where(lam > 0, lam, 1.0)
        for name, steps in self.time_sets().items():
            decays = list(_decays(grid, self.BETA, steps))
            pairs = list(_propagators(grid, self.BETA, steps))
            assert len(decays) == len(pairs) == len(steps), name
            for h, decay, (E, phi1) in zip(steps, decays, pairs):
                oracle_E = np.exp(-h * lam)
                oracle_phi1 = np.where(lam > 0, -np.expm1(-h * lam) / safe, h)
                assert np.array_equal(decay, oracle_E), (name, h)
                assert np.array_equal(E, oracle_E), (name, h)
                assert np.array_equal(phi1, oracle_phi1), (name, h)
                assert E[0, 0] == 1.0 and phi1[0, 0] == h, (name, h)

    @pytest.mark.parametrize("n", [64, 128])
    def test_kernel_fields_equal_full_plane_render(self, n, params):
        grid = GridSpec(n, L)
        t = 0.3
        full = heat_symbol(grid, params.beta, t)

        def render(symbol):
            return spectral.inverse(spectral.half(symbol), n) / grid.cell_area

        heat, (g1, g2), rk = kernel_fields(t, params, grid)
        assert np.array_equal(heat.values, render(full))
        assert np.array_equal(g1.values, render(derivative_symbol(grid, 1) * full))
        assert np.array_equal(g2.values, render(derivative_symbol(grid, 2) * full))
        assert np.array_equal(rk.values, render(riesz_symbol(grid, 1) * full))


class TestHalfSymbols:
    """The hot multiplies read contiguous half copies of the symbols
    (``_half_symbol``); the public builders keep the full layout."""

    BUILDERS = [
        (riesz_symbol, (1,)),
        (riesz_symbol, (2,)),
        (derivative_symbol, (1,)),
        (derivative_symbol, (2,)),
        (mixed_derivative_symbol, (0, 0)),
        (mixed_derivative_symbol, (2, 1)),
    ]

    @pytest.mark.parametrize("n", [16, 48, 256])
    @pytest.mark.parametrize("builder, args", BUILDERS)
    def test_copy_is_the_half_view_bit_for_bit(self, n, builder, args):
        grid = GridSpec(n, L)
        copy = _half_symbol(builder, grid, *args)
        view = spectral.half(builder(grid, *args))
        assert copy.shape == view.shape == (n, spectral.half_width(n))
        # int64 views: signed zeros and NaN payloads count too
        assert np.array_equal(copy.view(np.int64), view.view(np.int64))
        assert copy.flags.c_contiguous and not copy.flags.writeable
        assert _half_symbol(builder, grid, *args) is copy

    def test_solver_and_x_norm_build_no_full_symbol(self, params):
        builders = (riesz_symbol, derivative_symbol, mixed_derivative_symbol)
        grid = GridSpec(32, 4 * L)   # new to every cache, so a call would miss
        theta0 = 1e-3 * field_from_function(grid, lambda x1, x2: np.sin(x1) + np.cos(x2))
        misses = [builder.cache_info().misses for builder in builders]
        traj, _ = picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))
        x_norm(traj, params)
        assert [builder.cache_info().misses for builder in builders] == misses

    def test_x_norm_caches_no_identity_symbol(self, params):
        # at k = 0 the multi-index symbol is exactly 1: x_norm neither makes
        # nor applies it, and caches only the Riesz halves it streams
        grid = GridSpec(32, 3 * L)   # new to every cache, so a call would miss
        f = field_from_function(grid, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
        x_norm(Trajectory(np.array([0.5, 1.0]), (f, 0.5 * f)), params)

        def cached(builder, *args):
            misses = _half_symbol.cache_info().misses
            _half_symbol(builder, grid, *args)
            return _half_symbol.cache_info().misses == misses

        assert cached(riesz_symbol, 1) and cached(riesz_symbol, 2)
        assert not cached(mixed_derivative_symbol, 0, 0)
