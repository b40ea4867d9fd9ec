import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qsqg import (
    DivergenceError,
    GridSpec,
    NonFiniteError,
    RealField,
    SpaceParams,
    Trajectory,
    band_limited_corpus,
    caloric_minus1_norm,
    duhamel_bilinear,
    field_from_function,
    linear_flow,
    load_trajectory,
    nonlinear_density,
    partial_derivative,
    picard_solve,
    reference_solve,
    riesz_transform,
    save_trajectory,
    scaling_transform,
    x_norm,
)
from qsqg import solver, spectral
from qsqg.experiments import ExperimentConfig, wellposedness_data
from qsqg.norms import caloric_coverage_times
from qsqg.operators import derivative_symbol, riesz_symbol
from qsqg.solver import PicardReport, SolverConfig, TimeGrid

from oracles import (besov_sup_norm, dealias_field, fresh_density, heat_semigroup,
                     reference_oracle, sqg_velocity)

L = 2 * np.pi


class TestTimeGrid:
    def test_graded_nodes(self):
        tg = TimeGrid(1.0, 16)
        t = tg.times
        assert len(t) == 16
        assert t[-1] == 1.0
        np.testing.assert_allclose(t, (np.arange(1, 17) / 16.0) ** 2)
        # the caloric norm's coverage grid is the same graded grid, bit for bit
        grid, params = GridSpec(32, L), SpaceParams(0.25, 0.75)
        for nodes in (16, 24, 40, 48, 96):
            horizon = (L / 2) ** (2 * params.beta)
            assert np.array_equal(caloric_coverage_times(grid, params, nodes),
                                  TimeGrid(horizon, nodes).times), nodes

    def test_refinement_nests(self):
        tg = TimeGrid(2.0, 16)
        fine = tg.refined(2)
        np.testing.assert_allclose(fine.times[1::2], tg.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 8)


class TestNonlinearity:
    def test_two_mode_closed_form(self, grid32):
        theta = field_from_function(grid32, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
        got = nonlinear_density(theta, theta)
        want = field_from_function(grid32, lambda x1, x2: np.cos(x1) * np.sin(2 * x2))
        assert np.abs(got.values - want.values).max() <= 1e-12

    def test_mode_dictionary_convolution_oracle(self):
        grid = GridSpec(16, L)
        amps = {(1, 0): 0.8 - 0.3j, (0, 2): 0.1 + 0.55j, (2, 1): -0.25 + 0.4j}
        modes = {}
        for k, a in amps.items():
            modes[k] = a
            modes[(-k[0], -k[1])] = np.conj(a)

        x = grid.coords
        x1, x2 = np.meshgrid(x, x, indexing="ij")

        def render(coeffs):
            out = np.zeros((16, 16), dtype=complex)
            for (k1, k2), a in coeffs.items():
                out += a * np.exp(1j * (k1 * x1 + k2 * x2))
            return out.real

        theta = RealField(grid, render(modes))

        def riesz_hat(coeffs, axis):
            out = {}
            for (k1, k2), a in coeffs.items():
                norm = math.hypot(k1, k2)
                out[(k1, k2)] = 1j * (k1 if axis == 1 else k2) / norm * a
            return out

        def convolve(fa, fb):
            out = {}
            for ka, a in fa.items():
                for kb, b in fb.items():
                    key = (ka[0] + kb[0], ka[1] + kb[1])
                    out[key] = out.get(key, 0.0) + a * b
            return out

        flux1 = convolve(modes, riesz_hat(modes, 2))  # theta * R2 theta
        flux2 = convolve(modes, riesz_hat(modes, 1))  # theta * R1 theta
        density = {}
        for (k1, k2), a in flux1.items():
            density[(k1, k2)] = density.get((k1, k2), 0.0) + 1j * k1 * a
        for (k1, k2), a in flux2.items():
            density[(k1, k2)] = density.get((k1, k2), 0.0) - 1j * k2 * a

        oracle = render(density)
        got = nonlinear_density(theta, theta)
        assert np.abs(got.values - oracle).max() <= 1e-12

    def test_equivalent_to_advective_form(self, grid32):
        theta = dealias_field(
            field_from_function(
                grid32, lambda x1, x2: np.sin(x1) * np.cos(2 * x2) + 0.5 * np.cos(3 * x1 + x2)
            )
        )
        u1, u2 = sqg_velocity(theta)
        advective = RealField(
            grid32,
            -(u1.values * partial_derivative(theta, 1).values
              + u2.values * partial_derivative(theta, 2).values),
        )
        got = nonlinear_density(theta, theta)
        assert np.abs(got.values - advective.values).max() <= 1e-12

    def test_mean_zero_to_roundoff(self, smooth32):
        # divergence form kills the zero mode; the inverse transform then
        # leaves the physical mean at roundoff scale, not bitwise zero
        out = nonlinear_density(smooth32, smooth32)
        assert abs(out.values.mean()) <= 1e-15 * max(1.0, out.max_abs())

    def test_requires_mean_zero_input(self, grid16):
        lump = RealField(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError):
            nonlinear_density(lump, lump)

    def test_spectral_core_matches_public_density(self, grid32):
        u, v = band_limited_corpus(grid32, count=2, max_mode=6, seed=5)
        core = fresh_density(
            spectral.forward(u.values), spectral.forward(v.values), grid32
        )
        public = nonlinear_density(u, v).values
        scale = np.abs(public).max()
        assert np.abs(spectral.inverse(core, grid32.n) - public).max() <= 1e-13 * scale
        # operator-level form d1(v R2 u) - d2(v R1 u) with dealiased factors
        # and products; u and v enter asymmetrically, so a swap would show
        ud, vd = dealias_field(u), dealias_field(v)
        flux = [
            dealias_field(RealField(grid32, vd.values * riesz_transform(ud, axis).values))
            for axis in (2, 1)
        ]
        oracle = partial_derivative(flux[0], 1).values - partial_derivative(flux[1], 2).values
        assert np.abs(public - oracle).max() <= 1e-12 * scale
        assert np.abs(nonlinear_density(v, u).values - public).max() > 1e-3 * scale

    @pytest.mark.parametrize("n", [16, 48, 64, 128, 256])
    @pytest.mark.parametrize("same", [False, True], ids=["u_ne_v", "u_is_v"])
    def test_density_equals_masked_stack_formula(self, n, same):
        """The in-place density gives the doubles of the formula that masks
        each factor, stacks the planes and masks the flux before combining,
        even with non-finite values on modes that the dealias mask drops."""
        grid = GridSpec(n, L)
        u, v = band_limited_corpus(grid, count=2, max_mode=n // 5, seed=11)
        spec_u, spec_v = spectral.forward(u.values), spectral.forward(v.values)
        spec_u[n // 2, n // 2] = np.inf  # dropped row and column
        spec_u[n // 2, 1] = -np.inf      # dropped row only
        spec_u[1, n // 2] = np.nan       # dropped column only
        if same:
            spec_v = spec_u
        keep = spectral.half(grid.dealias_mask)
        mu, mv = np.where(keep, spec_u, 0.0), np.where(keep, spec_v, 0.0)
        r1 = spectral.half(riesz_symbol(grid, 1))
        r2 = spectral.half(riesz_symbol(grid, 2))
        vv, r2u, r1u = spectral.inverse(np.stack([mv, r2 * mu, r1 * mu]), n)
        flux = np.where(keep, spectral.forward(np.stack([vv * r2u, vv * r1u])), 0.0)
        ref = (spectral.half(derivative_symbol(grid, 1)) * flux[0]
               - spectral.half(derivative_symbol(grid, 2)) * flux[1])
        got = fresh_density(spec_u, spec_v, grid)
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # the sign of every zero too

    def test_density_transform_budget(self, smooth32, monkeypatch):
        spec = spectral.forward(smooth32.values)
        calls = {"forward": [], "inverse_into": [], "inverse": []}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(spectral, name), **kwargs):
                calls[_name].append(args[-1])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        fresh_density(spec, spec, smooth32.grid)
        # one batched inverse and one batched forward, both on the kept columns
        kept = smooth32.grid.dealias_cutoff + 1
        assert calls == {"forward": [kept], "inverse_into": [kept], "inverse": []}

    def test_held_buffers_give_fresh_doubles(self):
        """Consecutive calls on one scratch and output, each with other
        inputs, give the bytes of calls on fresh buffers: nothing a call
        leaves in the buffers, dropped modes included, reaches the next."""
        grid = GridSpec(64, L)
        fields = band_limited_corpus(grid, count=3, max_mode=30, seed=4)
        specs = [spectral.forward(f.values) for f in fields]  # content on dropped modes
        specs[0][32, 32] = np.inf
        specs[0][1, 32] = np.nan
        scratch, out = solver._density_scratch(grid), solver._half_planes(grid, 2)
        for u, v in [(0, 1), (2, 2), (1, 0), (2, 1)]:
            got = solver._density(specs[u], specs[v], grid, scratch, out)
            assert got.tobytes() == fresh_density(specs[u], specs[v], grid).tobytes()

    def test_density_on_held_buffers_allocates_no_plane(self):
        grid = GridSpec(64, L)
        u, v = band_limited_corpus(grid, count=2, max_mode=10, seed=7)
        spec_u, spec_v = spectral.forward(u.values), spectral.forward(v.values)
        scratch, out = solver._density_scratch(grid), solver._half_planes(grid, 2)
        solver._density(spec_u, spec_v, grid, scratch, out)  # fills the symbol caches
        tracemalloc.start()
        try:
            solver._density(spec_u, spec_v, grid, scratch, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.n * spectral.half_width(grid.n) * np.dtype(complex).itemsize


def duhamel_with_density(density, times, grid, params):
    """The solver's Duhamel recursion with the density at node j replaced by
    the field ``density(j)``, which isolates the quadrature from the
    nonlinearity."""
    spectra = solver._duhamel(lambda j: spectral.forward(density(j).values), times,
                              grid, params.beta)
    return solver._trajectory(times, spectra, grid)


class TestDuhamel:
    def test_stationary_density_closed_form(self, grid32, params):
        tg = TimeGrid(1.0, 24)
        amp = 0.37
        dens = field_from_function(grid32, lambda x1, x2: amp * np.sin(x1))
        out = duhamel_with_density(lambda j: dens, tg.times, grid32, params)
        x1 = grid32.coords[:, None]
        for t, snap in zip(out.times, out.snapshots):
            target = amp * (1 - np.exp(-t)) * np.sin(x1) * np.ones((1, grid32.n))
            assert np.abs(snap.values - target).max() <= 1e-12

    def test_bilinearity(self, grid32, params):
        tg = TimeGrid(0.5, 16)
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        g = field_from_function(grid32, lambda x1, x2: np.cos(2 * x2))
        U, V = linear_flow(f, tg, params), linear_flow(g, tg, params)
        W = linear_flow(f + g, tg, params)
        left = duhamel_bilinear(W, V, params)
        split = duhamel_bilinear(U, V, params) + duhamel_bilinear(V, V, params)
        err = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(left.snapshots, split.snapshots)
        )
        assert err <= 1e-12


    @pytest.mark.parametrize("m", [16, 32, 128])
    def test_recursion_matches_quadratic_oracle(self, grid32, params, m):
        tg = TimeGrid(1.0, m)
        fields = band_limited_corpus(grid32, count=m, max_mode=8, seed=17)
        traj = Trajectory(tg.times, tuple(fields))
        # the density at each node is that node's snapshot, so every cell
        # integrates a different field
        got = duhamel_with_density(lambda j: fields[j], tg.times, grid32, params)

        k = np.fft.fftfreq(grid32.n, 1.0 / grid32.n)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        lam = np.hypot(k1, k2) ** (2 * params.beta)
        inv_lam = np.where(lam > 0, 1.0 / np.where(lam > 0, lam, 1.0), 0.0)
        ghat = [np.fft.fft2(f.values) for f in fields]
        left = [ghat[0]] + ghat[: m - 1]  # s_0 = 0 reuses the t_1 density
        nodes = np.concatenate([[0.0], tg.times])
        want = []
        for j in range(1, m + 1):
            acc = np.zeros_like(ghat[0])
            for i in range(j):
                acc += left[i] * (np.exp(-(nodes[j] - nodes[i + 1]) * lam)
                                  - np.exp(-(nodes[j] - nodes[i]) * lam))
            want.append(np.fft.ifft2(acc * inv_lam).real)
        scale = max(np.abs(w).max() for w in want)
        err = max(np.abs(s.values - w).max() for s, w in zip(got.snapshots, want))
        assert err <= 1e-13 * scale

    def test_fixed_point_residual_is_the_trajectory_expression(self, grid32, params):
        # node by node, the bytes of traj - (linear_flow + B(traj, traj))
        theta0 = 0.5 * band_limited_corpus(grid32, count=1, max_mode=8, seed=2)[0]
        tg = TimeGrid(1.0, 16)
        traj, _ = picard_solve(theta0, params, SolverConfig(tg, max_iter=2))
        want = traj - (linear_flow(theta0, tg, params) + duhamel_bilinear(traj, traj, params))
        got = solver.fixed_point_residual(traj, theta0, params)
        assert np.array_equal(got.times, want.times)
        assert all(a.values.tobytes() == b.values.tobytes()
                   for a, b in zip(got.snapshots, want.snapshots))
        assert max(s.max_abs() for s in got.snapshots) > 0


class TestPicard:
    def test_small_data_contract(self, grid32, params):
        theta0 = 1e-3 * field_from_function(
            grid32, lambda x1, x2: np.sin(x1) + np.cos(2 * x2)
        )
        config = SolverConfig(TimeGrid(1.0, 24))
        traj, report = picard_solve(theta0, params, config)
        assert report.converged
        assert report.contraction_ratio < 0.5
        base = linear_flow(theta0, config.timegrid, params)
        residual = x_norm(
            traj - (base + duhamel_bilinear(traj, traj, params)), params
        ).value
        norm = x_norm(traj, params).value
        assert residual <= 2 * config.picard_tol * (1 + norm)

    def test_report_csv(self, grid32, params):
        theta0 = 1e-3 * field_from_function(grid32, lambda x1, x2: np.sin(x1))
        _, report = picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "iteration,norm,increment"
        # one row per iterate: the linear flow (empty increment) plus each sweep
        assert len(lines) == len(report.iterate_norms) + 1
        assert lines[1].endswith(",")

    def test_blowup_raises_divergence_error(self, grid16, params):
        theta0 = 1e6 * field_from_function(
            grid16, lambda x1, x2: np.sin(x1) + np.cos(2 * x2)
        )
        with pytest.raises(DivergenceError) as info:   # under pytest's RuntimeWarning filter
            picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))
        assert info.value.iteration is not None

    def test_divergence_raises_under_warning_filter(self):
        # pytest turns every RuntimeWarning into an error (pyproject.toml), as
        # the CI determinism job does: the iterates' overflow must still end
        # as DivergenceError from the finiteness check, not as a warning
        cfg = ExperimentConfig()
        config = SolverConfig(TimeGrid(cfg.horizon, 64), sweep=cfg.sweep)
        with pytest.raises(DivergenceError) as info:
            picard_solve(10.0 * wellposedness_data(cfg.grid), cfg.params, config)
        assert info.value.iteration == 26

    def test_unmeasurable_data_raises_divergence_error(self, grid16, params):
        # finite data whose spectrum overflows: the linear flow's norm is not
        # finite, which is divergence at iteration 0, not an estimator error
        # nor a bare RuntimeWarning from the overflowing transform
        theta0 = 2e306 * field_from_function(
            grid16, lambda x1, x2: np.sin(x1) + np.cos(2 * x2)
        )
        assert np.isfinite(theta0.values).all()
        with pytest.raises(DivergenceError) as info:   # under pytest's RuntimeWarning filter
            picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))
        assert info.value.iteration == 0
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_overflowing_mean_diverges_without_warning(self, grid16, params):
        # the plain sum of 5e306 (sin x1 + cos 2 x2) overflows; the mean-zero
        # check passes it without a warning and the solve diverges
        theta0 = 5e306 * field_from_function(
            grid16, lambda x1, x2: np.sin(x1) + np.cos(2 * x2)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))

    def test_huge_data_diverges_at_first_norm_under_warning_filter(self, grid16, params):
        # 1e306 data under pytest's RuntimeWarning filter: the Wiener sums,
        # Riesz energies and block sups of its nodes are made from spectra
        # scaled by a power of two, so the norm of iterate 0 is finite and
        # the solve diverges in the first sweep, where its density overflows
        theta0 = 1e306 * wellposedness_data(grid16)
        with pytest.raises(DivergenceError) as info:
            picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))
        assert info.value.iteration == 1

    def test_peak_holds_at_most_two_iterate_stacks(self, params):
        # iterates are (M, N, N/2+1) half-spectrum stacks and only the
        # current and the next one are alive: the linear flow is made again
        # node by node in each sweep, not held as a third stack.  The peak's
        # growth from M = 16 to M = 32 nodes counts the stacks, without the
        # fixed cost of one density's buffers and one Carleson batch
        grid = GridSpec(128, L)
        theta0 = 1e-3 * wellposedness_data(grid)

        def traced_peak(m):
            config = SolverConfig(TimeGrid(1.0, m))
            picard_solve(theta0, params, config)   # fills the per-grid caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _, report = picard_solve(theta0, params, config)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert report.iterations >= 2
            return peak

        stack16 = 16 * grid.n * spectral.half_width(grid.n) * np.dtype(complex).itemsize
        assert traced_peak(32) - traced_peak(16) < 2.5 * stack16


class TestLinearFlow:
    @pytest.mark.parametrize("n", [32, 256])
    def test_linear_flow_matches_full_plane_semigroup(self, n, params):
        # heat_semigroup builds exp(-t lam) on the full plane, independently
        # of the rate-level core behind linear_flow and the solvers
        grid = GridSpec(n, L)
        theta0 = field_from_function(
            grid, lambda x1, x2: np.sin(x1) * np.cos(2 * x2) + 0.3 * np.cos(7 * x1 - 5 * x2)
            + 0.05 * np.sin(13 * x1 + 11 * x2))
        tg = TimeGrid(1.0, 16)
        flow = linear_flow(theta0, tg, params)
        for t, snap in zip(tg.times, flow.snapshots):
            oracle = heat_semigroup(theta0, t, params).values
            assert np.abs(snap.values - oracle).max() <= 1e-14 * np.abs(oracle).max()


class TestReference:
    def test_blowup_raises_divergence_error_with_time(self, grid16, params):
        theta0 = 1e6 * field_from_function(
            grid16, lambda x1, x2: np.sin(x1) + np.cos(2 * x2)
        )
        config = SolverConfig(TimeGrid(1.0, 16))
        with pytest.raises(DivergenceError) as info:   # under pytest's RuntimeWarning filter
            reference_solve(theta0, params, config)
        assert info.value.time in config.timegrid.times

    @pytest.mark.parametrize("refine", [1, 4])
    def test_matches_allocating_predictor_corrector(self, grid32, params, refine):
        # the in-place substeps on held buffers give the allocating form's doubles
        theta0 = 0.5 * band_limited_corpus(grid32, count=1, max_mode=12, seed=9)[0]
        config = SolverConfig(TimeGrid(1.0, 16), reference_refine=refine)
        got = reference_solve(theta0, params, config)
        want = reference_oracle(theta0, params, config)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(got.snapshots, want.snapshots))

    def test_self_convergence_order(self, params):
        grid = GridSpec(32, L)
        theta0 = 0.05 * field_from_function(grid, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
        tg = TimeGrid(0.5, 16)
        golden = reference_solve(theta0, params, SolverConfig(tg, reference_refine=16))
        errs = {}
        for refine in (2, 4):
            sol = reference_solve(theta0, params, SolverConfig(tg, reference_refine=refine))
            errs[refine] = max(
                np.abs(a.values - b.values).max()
                for a, b in zip(sol.snapshots, golden.snapshots)
            )
        order = math.log2(errs[2] / errs[4])
        assert order >= 1.8

    def test_agreement_with_picard_on_small_data(self, grid32, params):
        theta0 = 1e-3 * field_from_function(
            grid32, lambda x1, x2: np.sin(x1) + np.cos(2 * x2)
        )
        config = SolverConfig(TimeGrid(1.0, 24))
        picard, _ = picard_solve(theta0, params, config)
        ref = reference_solve(theta0, params, config)
        rel = max(
            np.abs(p.values - r.values).max() / np.abs(r.values).max()
            for p, r in zip(picard.snapshots, ref.snapshots)
        )
        assert rel <= 1e-3


class TestScaling:
    def test_identity(self, smooth32, params):
        out = scaling_transform(smooth32, 1, params)
        assert np.array_equal(out.values, smooth32.values)

    def test_composition(self, params):
        grid = GridSpec(64, L)
        f = band_limited_corpus(grid, count=1, max_mode=7, seed=3)[0]
        twice = scaling_transform(scaling_transform(f, 2, params), 2, params)
        once = scaling_transform(f, 4, params)
        assert np.abs(twice.values - once.values).max() <= 1e-12

    def test_rejects_non_divisor(self, smooth32, params):
        with pytest.raises(ValueError):
            scaling_transform(smooth32, 3, params)  # 3 does not divide 32
        with pytest.raises(ValueError):
            scaling_transform(smooth32, 0, params)

    def test_amplitude_exponent(self, params):
        grid = GridSpec(32, L)
        f = field_from_function(grid, lambda x1, x2: np.sin(x1))
        out = scaling_transform(f, 2, params)
        target = 2 ** (2 * params.beta - 1) * np.sin(2 * grid.coords)[:, None]
        assert np.abs(out.values - target * np.ones((1, 32))).max() <= 1e-12

    def test_besov_sup_criticality_on_corpus(self, params):
        grid = GridSpec(64, L)
        s = 1 - 2 * params.beta
        for f in band_limited_corpus(grid, count=6, max_mode=7, seed=21):
            ratio = (
                besov_sup_norm(scaling_transform(f, 2, params), s).value
                / besov_sup_norm(f, s).value
            )
            assert 0.8 <= ratio <= 1.25


class TestSerialization:
    def test_round_trip(self, grid32, params, tmp_path):
        theta0 = 1e-3 * field_from_function(grid32, lambda x1, x2: np.sin(x1))
        traj, report = picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16)))
        save_trajectory(traj, tmp_path / "run", params, report=report)
        back, loaded_params = load_trajectory(tmp_path / "run")
        assert loaded_params == params
        assert back.grid == traj.grid
        assert np.array_equal(np.asarray(back.times), np.asarray(traj.times))
        for a, b in zip(back.snapshots, traj.snapshots):
            assert np.array_equal(a.values, b.values)
        assert (tmp_path / "run" / "picard.csv").exists()

    @pytest.mark.parametrize("key, value", [("side_points", 64), ("domain_length", 1.0)])
    def test_rejects_manifest_grid_mismatch(self, grid32, params, tmp_path, key, value):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        save_trajectory(Trajectory(np.array([0.5, 1.0]), (f, f)), tmp_path / "run", params)
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest"):
            load_trajectory(tmp_path / "run")

    def test_rejects_foreign_manifest(self, grid32, params, tmp_path):
        d = tmp_path / "run"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_trajectory(d)
