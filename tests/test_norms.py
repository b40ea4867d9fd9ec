import math

import numpy as np
import pytest

from qsqg import (
    BoxSweepConfig,
    GridSpec,
    NonFiniteError,
    RealField,
    SpaceParams,
    Trajectory,
    band_limited_corpus,
    besov_sum_norm,
    besov_sup_norm,
    caloric_minus1_norm,
    carleson_l1_functional,
    field_from_function,
    linear_flow,
    morrey_norm,
    morrey_semigroup_functional,
    q_norm_direct,
    q_norm_semigroup,
    x_k_norm,
    x_norm,
)
from qsqg import norms
from qsqg import operators as ops
from qsqg import spectral
from qsqg.experiments import ExperimentConfig, deepest_sweep, wellposedness_data
from qsqg.norms import caloric_coverage_times
from qsqg.solver import SolverConfig, TimeGrid, picard_solve
from qsqg.sweep import (
    TIME_RATIO,
    CarlesonBox,
    best_center,
    box_sums,
    geometric_ladder,
    linear_weight,
    mask_point_count,
    power_weight,
    trajectory_weights,
)

L = 2 * np.pi


def caloric_trajectory(u0, params, times):
    import qsqg.operators as ops

    spec = np.fft.fft2(u0.values - u0.values.mean())
    lam = ops.dissipation_symbol(u0.grid, 2 * params.beta)
    snaps = tuple(
        RealField(u0.grid, np.fft.ifft2(np.exp(-t * lam) * spec).real) for t in times
    )
    return Trajectory(np.asarray(times, dtype=float), snaps)


def full_coverage_trajectory(field, params, nodes=40):
    times = caloric_coverage_times(field.grid, params, num_nodes=nodes)
    return Trajectory(times, tuple(field for _ in times))


class TestAxioms:
    """Zero fields map to zero, scaling a field scales the value by |c|."""

    def field_estimators(self, params):
        return [
            lambda f: besov_sum_norm(f).value,
            lambda f: besov_sup_norm(f, 1 - 2 * params.beta).value,
            lambda f: morrey_norm(f, 2, 1.0).value,
            lambda f: q_norm_direct(f, params).value,
            lambda f: q_norm_semigroup(f, params).value,
            lambda f: morrey_semigroup_functional(f, 0.5, params).value,
            lambda f: caloric_minus1_norm(f, params).value,
        ]

    def test_zero_field(self, grid32, params):
        zero = RealField.zero(grid32)
        for est in self.field_estimators(params):
            assert est(zero) == 0.0

    def test_field_homogeneity(self, smooth32, params):
        c = -2.375
        for est in self.field_estimators(params):
            base = est(smooth32)
            scaled = est(c * smooth32)
            assert abs(scaled - abs(c) * base) <= 1e-12 * max(1.0, abs(c) * base)

    def test_zero_trajectory(self, grid32, params):
        times = np.array([0.25, 0.5, 1.0])
        zero = Trajectory(times, tuple(RealField.zero(grid32) for _ in times))
        assert x_norm(zero, params).value == 0.0
        assert x_k_norm(zero, params, 1).value == 0.0
        assert carleson_l1_functional(zero, params).value == 0.0

    def test_trajectory_homogeneity(self, smooth32, params):
        times = np.array([0.25, 0.5, 1.0])
        traj = Trajectory(times, (smooth32, 0.5 * smooth32, 0.25 * smooth32))
        c = 3.5
        for est, order in ((x_norm, 1), (carleson_l1_functional, 1)):
            base = est(traj, params).value
            scaled = est(traj.scaled(c), params).value
            assert abs(scaled - c**order * base) <= 1e-12 * max(1.0, base)


class TestBesov:
    def test_single_mode_block_sum(self, grid32):
        f = field_from_function(grid32, lambda x1, x2: np.cos(2 * x1))
        r = besov_sum_norm(f)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.attaining_level == 1

    def test_weighted_sup(self, grid32):
        f = field_from_function(grid32, lambda x1, x2: np.cos(2 * x1))
        r = besov_sup_norm(f, -0.5)
        assert r.value == pytest.approx(2.0**-0.5, abs=1e-12)

    def test_sum_dominates_sup_at_zero_weight(self, smooth32):
        assert besov_sum_norm(smooth32).value >= besov_sup_norm(smooth32, 0.0).value - 1e-15


class TestMorrey:
    def brute_force(self, f, p, lam, sweep):
        grid = f.grid
        v = f.values - f.values.mean()
        best = -np.inf
        for m in range(1, sweep.num_radii + 1):
            r = grid.length / 2**m
            stride = grid.n // 2 ** (m + 1)
            half = int(round(r / grid.spacing))
            offs = np.arange(-(half - 1), half)
            for ci in range(0, grid.n, stride):
                for cj in range(0, grid.n, stride):
                    block = v[np.ix_((ci + offs) % grid.n, (cj + offs) % grid.n)]
                    val = (2 * r) ** (-lam) * grid.cell_area * (
                        np.abs(block - block.mean()) ** p
                    ).sum()
                    best = max(best, val)
        return best ** (1 / p)

    @pytest.mark.parametrize("p,lam", [(2, 1.0), (2, 2.0)])
    def test_matches_brute_force(self, smooth32, p, lam):
        sweep = BoxSweepConfig()
        got = morrey_norm(smooth32, p, lam, sweep).value
        want = self.brute_force(smooth32, p, lam, sweep)
        assert got == pytest.approx(want, rel=1e-10)

    def test_fast_path_equals_general_path(self, corpus32):
        # the FFT box sums against the per-cube loop
        for f in corpus32[:2]:
            fast = morrey_norm(f, 2, 1.5).value
            slow = self.brute_force(f, 2, 1.5, BoxSweepConfig())
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_rejects_p_below_one(self, smooth32):
        # p < 1 is no norm, and only p = 2 is computed
        for p in (0.5, 1, 3):
            with pytest.raises(ValueError):
                morrey_norm(smooth32, p, 1.0)


class TestQNormDirect:
    def brute_force(self, f, params, sweep):
        grid = f.grid
        n = grid.n
        v = f.values - f.values.mean()
        a, b = params.alpha, params.beta
        # torus difference kernel |d|^-(2a - 2b + 4), diagonal cell zeroed
        d = grid.signed_coords
        d1, d2 = np.meshgrid(d, d, indexing="ij")
        dist = np.hypot(d1, d2)
        with np.errstate(divide="ignore"):
            kern = dist ** -(2 * a - 2 * b + 4)
        kern[dist < grid.spacing / 2] = 0.0

        best = -np.inf
        for m in range(1, sweep.num_radii + 1):
            r = grid.length / 2**m
            stride = n // 2 ** (m + 1)
            half = int(round(r / grid.spacing))
            offs = np.arange(-(half - 1), half)
            oi, oj = np.meshgrid(offs, offs, indexing="ij")
            pts = np.stack([oi.ravel(), oj.ravel()], axis=1)
            diff_i = (pts[:, None, 0] - pts[None, :, 0]) % n
            diff_j = (pts[:, None, 1] - pts[None, :, 1]) % n
            kmat = kern[diff_i, diff_j]
            for ci in range(0, n, stride):
                for cj in range(0, n, stride):
                    block = v[np.ix_((ci + offs) % n, (cj + offs) % n)].ravel()
                    pair = (block[:, None] - block[None, :]) ** 2 * kmat
                    val = (2 * r) ** (2 * a + 2 * b - 4) * grid.cell_area**2 * pair.sum()
                    best = max(best, val)
        return math.sqrt(max(best, 0.0))

    def test_matches_brute_force(self, params):
        grid = GridSpec(16, L)
        f = field_from_function(
            grid, lambda x1, x2: np.sin(x1) * np.cos(2 * x2) + 0.4 * np.cos(3 * x1)
        )
        sweep = BoxSweepConfig()
        got = q_norm_direct(f, params, sweep).value
        want = self.brute_force(f, params, sweep)
        assert got == pytest.approx(want, rel=1e-10)

    def test_comparable_with_semigroup_characterization(self, params, corpus32):
        ratios = []
        for f in corpus32:
            direct = q_norm_direct(f, params).value
            semi = q_norm_semigroup(f, params).value
            ratios.append(direct / semi)
        assert max(ratios) / min(ratios) <= 20.0
        assert all(np.isfinite(r) for r in ratios)

    def test_morrey_functional_comparable_with_morrey(self, params, corpus32):
        # equivalence of the semigroup box functional with the oscillation
        # norm of index lam = 2 - 2 gamma, as a two-sided spread bound
        gamma = 0.5
        ratios = []
        for f in corpus32:
            box = morrey_semigroup_functional(f, gamma, params).value
            osc = morrey_norm(f, 2, 2 - 2 * gamma).value
            ratios.append(box / osc)
        assert max(ratios) / min(ratios) <= 20.0


class TestSweepMonotonicity:
    """Enlarging the sweep never decreases a reported value (exact)."""

    def test_more_radii_field_estimators(self, smooth32, params):
        small, big = BoxSweepConfig(3), BoxSweepConfig(4)
        pairs = [
            lambda s: morrey_norm(smooth32, 2, 1.0, s).value,
            lambda s: q_norm_direct(smooth32, params, s).value,
            lambda s: q_norm_semigroup(smooth32, params, s).value,
            lambda s: morrey_semigroup_functional(smooth32, 0.5, params, s).value,
            lambda s: caloric_minus1_norm(smooth32, params, s).value,
        ]
        for est in pairs:
            assert est(big) >= est(small)

    def test_more_radii_trajectory_estimators(self, smooth32, params):
        traj = full_coverage_trajectory(smooth32, params)
        small, big = BoxSweepConfig(3), BoxSweepConfig(4)
        assert x_norm(traj, params, big).value >= x_norm(traj, params, small).value
        assert (
            x_k_norm(traj, params, 1, big).value
            >= x_k_norm(traj, params, 1, small).value
        )
        assert (
            carleson_l1_functional(traj, params, big).value
            >= carleson_l1_functional(traj, params, small).value
        )

    def test_more_time_nodes_ladder_estimators(self, smooth32, params):
        small, big = BoxSweepConfig(3, 16), BoxSweepConfig(3, 24)
        assert (
            q_norm_semigroup(smooth32, params, big).value
            >= q_norm_semigroup(smooth32, params, small).value
        )
        assert (
            morrey_semigroup_functional(smooth32, 0.5, params, big).value
            >= morrey_semigroup_functional(smooth32, 0.5, params, small).value
        )


def ladder(params, sweep, kind, r, gamma=0.5):
    """(decay times, weights, prefactor) of radius r, as the estimator of
    ``kind`` builds them."""
    a, b = params.alpha, params.beta
    if kind == "q":
        lows, highs, mids = geometric_ladder(r ** (2 * b), sweep.time_nodes, TIME_RATIO)
        return mids, power_weight(lows, highs, a / b), r ** (2 * a + 2 * b - 4)
    lows, highs, mids = geometric_ladder(r, sweep.time_nodes, TIME_RATIO)
    return [t ** (2 * b) for t in mids], linear_weight(lows, highs), r ** (2 * gamma - 2)


def ladder_oracle(f, params, sweep, kind, gamma=0.5):
    """Per-radius semigroup sweep: a fresh ladder for every radius, each
    node's gradient from a full complex inverse FFT, energies added in
    ascending time order (kind "q": q_norm_semigroup, "morrey":
    morrey_semigroup_functional)."""
    grid = f.grid
    a, b = params.alpha, params.beta
    spec = np.fft.fft2(f.values - f.values.mean())
    lam = ops.dissipation_symbol(grid, 2 * b)
    d1, d2 = ops.derivative_symbol(grid, 1), ops.derivative_symbol(grid, 2)
    best = -1.0
    for m, r in enumerate(sweep.radii(grid), start=1):
        if kind == "q":
            lows, highs, mids = geometric_ladder(r ** (2 * b), sweep.time_nodes, TIME_RATIO)
            times, weights = mids, power_weight(lows, highs, a / b)
            prefactor = r ** (2 * a + 2 * b - 4)
        else:
            lows, highs, mids = geometric_ladder(r, sweep.time_nodes, TIME_RATIO)
            times, weights = mids ** (2 * b), linear_weight(lows, highs)
            prefactor = r ** (2 * gamma - 2)
        density = np.zeros((grid.n, grid.n))
        for s, w in zip(times, weights):
            decayed = np.exp(-s * lam) * spec
            gx = np.fft.ifft2(d1 * decayed).real
            gy = np.fft.ifft2(d2 * decayed).real
            density += w * (gx * gx + gy * gy)
        vals = prefactor * grid.cell_area * box_sums(density, grid, r, "ball")
        best = max(best, best_center(vals, grid, sweep.stride(grid, m))[0])
    return math.sqrt(max(best, 0.0))


def semigroup_estimators(params):
    return {
        "q": lambda f, s=None: q_norm_semigroup(f, params, s),
        "morrey": lambda f, s=None: morrey_semigroup_functional(f, 0.5, params, s),
    }


def shared_ladder_oracle(f, params, sweep, kind):
    """(value, box) of the exhaustive shared-node sweep: nodes of all radii
    merged at 1e-12 relative and timed by the largest radius holding them,
    every node's gradient planes made, one inverse per plane, every radius
    box-summed, and the radii compared in order so the larger keeps a tie."""
    grid = f.grid
    v = f.values - f.values.mean()
    scale = int(np.frexp(np.abs(v).max())[1])
    spec = spectral.forward(np.ldexp(v, -scale))
    radii = sweep.radii(grid)
    ladders = [ladder(params, sweep, kind, r) for r in radii]
    nodes = []
    for s, k, w in sorted((s, k, w) for k, (times, weights, _) in enumerate(ladders)
                          for s, w in zip(times, weights)):
        if not nodes or s - nodes[-1][0] > 1e-12 * s:
            nodes.append([s, k, []])
        elif k < nodes[-1][1]:
            nodes[-1][:2] = s, k
        nodes[-1][2].append((k, w))
    lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
    d1 = spectral.half(ops.derivative_symbol(grid, 1))
    d2 = spectral.half(ops.derivative_symbol(grid, 2))
    densities = [None] * len(radii)
    for s, _, users in nodes:
        decayed = np.exp(-s * lam) * spec
        gx, gy = spectral.inverse(d1 * decayed, grid.n), spectral.inverse(d2 * decayed, grid.n)
        energy = gx * gx + gy * gy
        for k, w in users:
            if densities[k] is None:
                densities[k] = w * energy
            else:
                densities[k] += w * energy
    best, box = -1.0, None
    for m, (r, (_, _, prefactor), density) in enumerate(zip(radii, ladders, densities), start=1):
        vals = prefactor * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, sweep.stride(grid, m))
        if val > best:
            best, box = val, CarlesonBox(center, r)
    return math.ldexp(math.sqrt(max(best, 0.0)), scale), box


class TestLadderSweep:
    """`norms._ladder_sweep`, the shared-node sweep behind the two semigroup estimators."""

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    @pytest.mark.parametrize("n,radii", [(32, 3), (64, 5), (128, 3)])
    def test_matches_exhaustive_shared_oracle(self, a, b, n, radii):
        params = SpaceParams(a, b)
        sweep = BoxSweepConfig(radii)
        grid = GridSpec(n, L)
        fields = list(band_limited_corpus(grid, count=3, max_mode=n // 6, seed=8191))
        fields.append(field_from_function(grid, lambda x1, x2: np.sin(x1)))
        for f in fields:
            for kind, est in semigroup_estimators(params).items():
                report = est(f, sweep)
                assert (report.value, report.attaining_box) == \
                    shared_ladder_oracle(f, params, sweep, kind), (kind, n, radii)

    @pytest.mark.parametrize("kind", ["q", "morrey"])
    def test_zero_field_ties_keep_the_largest_radius(self, grid32, params, kind):
        # every radius is worth exactly 0 and the smallest finishes first
        report = semigroup_estimators(params)[kind](RealField.zero(grid32))
        assert report.value == 0.0
        assert report.attaining_box.radius == L / 2

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    @pytest.mark.parametrize("n,radii", [(32, 3), (64, 3), (64, 5)])
    def test_matches_per_radius_oracle(self, a, b, n, radii):
        params = SpaceParams(a, b)
        sweep = BoxSweepConfig(radii)
        for f in band_limited_corpus(GridSpec(n, L), count=2, max_mode=n // 6, seed=8191):
            for kind, est in semigroup_estimators(params).items():
                got = est(f, sweep).value
                want = ladder_oracle(f, params, sweep, kind)
                assert got == pytest.approx(want, rel=1e-13, abs=0), (kind, n, radii)

    @pytest.mark.parametrize("a,b,kind,planes", [
        (0.25, 0.75, "q", 54),        # shift of 6 nodes: 15 + 6 + 6 distinct
        (0.25, 0.75, "morrey", 46),   # shift of 4 nodes: 15 + 4 + 4 distinct
        (0.3, 0.8, "q", 90),          # shift of 6.4 nodes: nothing shared
    ])
    def test_transform_budget(self, grid64, monkeypatch, a, b, kind, planes):
        f = band_limited_corpus(grid64, count=1, max_mode=10, seed=8191)[0]
        est = semigroup_estimators(SpaceParams(a, b))[kind]
        inverse = spectral.inverse
        counted = []

        def counting_inverse(spec, n):
            counted.append(int(np.prod(spec.shape[:-2])))
            return inverse(spec, n)

        monkeypatch.setattr(spectral, "inverse", counting_inverse)
        est(f)
        # Gradient planes up to the smallest radius's last node plus the
        # rest of its batch (7 planes at N = 64), then box sums: the smallest
        # radius attains the sup and the larger ones fall to their bounds,
        # transform-free but for one morrey radius's ball-sum bound.
        pruned = {(0.25, 0.75, "q"): 35 + 1, (0.25, 0.75, "morrey"): 35 + 2,
                  (0.3, 0.8, "q"): 56 + 1}[a, b, kind]
        assert sum(counted) == pruned
        counted.clear()
        monkeypatch.setattr(norms._RadiusSweep, "_beaten_at", lambda *args: False)
        est(f)
        assert sum(counted) == planes + 3   # unpruned: every node's gradient planes, then box sums

    def test_added_radius_leaves_common_radii_bit_identical(self, params, corpus32):
        compared = 0
        for est in semigroup_estimators(params).values():
            for f in corpus32:
                small, big = est(f, BoxSweepConfig(3)), est(f, BoxSweepConfig(4))
                if big.attaining_box.radius >= L / 8:
                    assert big.value == small.value
                    assert big.attaining_box == small.attaining_box
                    compared += 1
        assert compared > 0

    @pytest.mark.parametrize("kind", ["q", "morrey"])
    def test_homogeneous_over_all_amplitudes(self, params, corpus32, kind):
        est = semigroup_estimators(params)[kind]
        f = corpus32[0]
        base = est(f).value
        assert base > 0
        for c in (1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300):
            value = est(c * f).value
            assert math.isfinite(value)
            assert abs(value - c * base) <= 1e-12 * c * base, c

    @pytest.mark.parametrize("kind", ["q", "morrey"])
    def test_non_finite_input_raises(self, params, grid32, kind):
        est = semigroup_estimators(params)[kind]
        bad = RealField.zero(grid32)
        values = np.zeros((32, 32))
        values[3, 5] = np.inf
        object.__setattr__(bad, "values", values)   # past RealField's own check
        # finite values whose mean overflows leave a non-finite centered field
        huge = RealField(grid32, np.full((32, 32), 1.5e308))
        with np.errstate(over="ignore", invalid="ignore"):
            for field in (bad, huge):
                with pytest.raises(NonFiniteError):
                    est(field)


class TestRateTable:
    """`norms._rate_levels` and the node table of `norms._caloric_measures`,
    which the semigroup ladders and the caloric norm share."""

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("beta", [0.75, 0.8])
    def test_levels_reconstruct_the_half_symbol(self, n, beta):
        grid = GridSpec(n, L)
        levels, level_of = norms._rate_levels(grid, beta)
        lam = spectral.half(ops.dissipation_symbol(grid, 2 * beta))
        assert np.array_equal(levels[level_of], lam)
        assert (np.diff(levels) > 0).all()
        assert level_of.dtype == np.min_scalar_type(levels.size - 1)

    def test_level_counts(self):
        for n, count in [(64, 457), (128, 1621)]:
            levels, level_of = norms._rate_levels(GridSpec(n, L), 0.75)
            assert (levels.size, level_of.size) == (count, n * (n // 2 + 1))

    def test_cached_and_read_only(self, grid32):
        first = norms._rate_levels(grid32, 0.75)
        hits = norms._rate_levels.cache_info().hits
        again = norms._rate_levels(grid32, 0.75)
        assert norms._rate_levels.cache_info().hits == hits + 1
        assert all(a is b for a, b in zip(first, again))
        for table in (*first, *norms._gradient_symbols(grid32)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_gathered_decay_is_the_full_plane_exp(self, n):
        grid = GridSpec(n, L)
        lam = spectral.half(ops.dissipation_symbol(grid, 1.5))
        times = np.geomspace(1e-4, 6.0, 60)
        decay, _ = norms._caloric_measures(np.ones(lam.shape), grid, 0.75, times)
        for m, t in enumerate(times):
            assert np.array_equal(decay(m), np.exp(-t * lam)), (n, t)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_measures_match_per_node_oracle(self, n, params):
        grid = GridSpec(n, L)
        f = band_limited_corpus(grid, count=1, max_mode=n // 6, seed=8191)[0]
        spec = spectral.forward(f.values - f.values.mean())
        lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
        times = np.concatenate([caloric_coverage_times(grid, params),
                                np.geomspace(1e-4, 6.0, 28)])
        _, measures = norms._caloric_measures(spec, grid, params.beta, times)
        assert len(measures) == len(times)
        for t, (bound, e, q) in zip(times, measures):
            want_bound, want_e, want_q = norms._spectrum_measures(np.exp(-t * lam) * spec, n)
            assert bound == pytest.approx(want_bound, rel=1e-14, abs=0), (n, t)
            assert math.ldexp(q, 2 * e) == \
                pytest.approx(math.ldexp(want_q, 2 * want_e), rel=1e-14, abs=0), (n, t)


class TestTrajectoryNorms:
    def test_caloric_besov_closed_form(self, grid32, params):
        eps = 0.25
        f = eps * field_from_function(grid32, lambda x1, x2: np.sin(x1))
        report = caloric_minus1_norm(f, params)
        times = caloric_coverage_times(grid32, params)
        target = eps * float(np.max(times ** (1 - 1 / (2 * params.beta)) * np.exp(-times)))
        assert abs(report.parts["besov"] - target) <= 1e-3
        assert not report.partial_coverage

    def test_x_norm_flags_partial_coverage(self, grid32, params):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        short = caloric_trajectory(f, params, np.linspace(0.1, 1.0, 8))
        assert x_norm(short, params).partial_coverage

    def test_xk_zero_order_collapses_to_x_norm(self, grid32, params):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1) + 0.3 * np.cos(2 * x2))
        traj = caloric_trajectory(f, params, caloric_coverage_times(grid32, params))
        plain = x_norm(traj, params)
        ladder = x_k_norm(traj, params, 0)
        assert ladder.value == plain.value
        assert ladder.parts["besov"] == plain.parts["besov"]
        assert ladder.parts["carleson"] == plain.parts["carleson"]

    def test_xk_single_mode_first_order(self, grid32, params):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        traj = linear_flow(f, TimeGrid(1.0, 32), params)
        report = x_k_norm(traj, params, 1)
        assert abs(report.parts["besov"] - math.exp(-1)) <= 1e-3
        assert report.parts["orders"] == [1, 0]

    def test_xk_rejects_negative_order(self, grid32, params):
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        traj = caloric_trajectory(f, params, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            x_k_norm(traj, params, -1)

    def test_carleson_l1_constant_trajectory(self, grid32, params):
        ones = RealField(grid32, np.ones((32, 32)))
        traj = full_coverage_trajectory(ones, params)
        report = carleson_l1_functional(traj, params)
        a, b = params.alpha, params.beta
        best = -np.inf
        for m in (1, 2, 3):
            r = L / 2**m
            count = mask_point_count(grid32, r, "ball")
            time_integral = (r ** (2 * b)) ** (1 - a / b) / (1 - a / b)
            best = max(best, r ** (2 * a + 2 * b - 4) * count * grid32.cell_area * time_integral)
        assert report.value == pytest.approx(best, rel=1e-6)

    def test_caloric_time_grid_covers_largest_box(self, grid32, params):
        times = caloric_coverage_times(grid32, params)
        assert times[-1] == pytest.approx((L / 2) ** (2 * params.beta))
        assert times[0] > 0


class TestEmbedding:
    def test_caloric_besov_part_controlled_by_data_besov(self, params):
        # block part of the caloric extension vs the weighted-sup norm of the
        # data, with the measured constant stable as the grid refines
        constants = {}
        for n in (32, 64):
            grid = GridSpec(n, L)
            corpus = band_limited_corpus(grid, count=6, max_mode=4, seed=7113)
            ratios = []
            for f in corpus:
                lhs = caloric_minus1_norm(f, params).parts["besov"]
                rhs = besov_sup_norm(f, 1 - 2 * params.beta).value
                ratios.append(lhs / rhs)
            constants[n] = max(ratios)
        assert np.isfinite(constants[32]) and np.isfinite(constants[64])
        drift = abs(constants[64] - constants[32]) / constants[32]
        assert drift < 0.15


AMPLITUDES = (1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300)


def exhaustive_parts(times, spectra, snapshots, grid, params, k, sweep):
    """(besov, attaining time, carleson, box, partial) of the trajectory
    whose node m has half spectrum spectra[m]: every node's block and
    Carleson planes made, each plane by its own inverse transform, one
    density per radius, the Besov sup taken in time order keeping the first
    attaining node, and the radii compared in order so the larger keeps a
    tie.  ``snapshots`` are the physical values, or None to invert the
    spectra."""
    a, b = params.alpha, params.beta
    n = grid.n
    masks = [spectral.half(ops._annulus_mask(grid, l)) for l in ops.block_levels(grid)]
    r1 = spectral.half(ops.riesz_symbol(grid, 1))
    r2 = spectral.half(ops.riesz_symbol(grid, 2))
    radii = sweep.radii(grid)
    cells = [trajectory_weights(times, r ** (2 * b), a / b)[0] for r in radii]
    densities = [np.zeros((n, n)) for _ in radii]
    besov, when = -1.0, None
    for m, (t, spec) in enumerate(zip(times, spectra)):
        sups = np.array([np.abs(spectral.inverse(np.where(mask, spec, 0.0), n)).max()
                         for mask in masks])
        bval = t ** ((2 * b - 1 + k) / (2 * b)) * float(sups.sum())
        if bval > besov:
            besov, when = bval, float(t)
        v = spectral.inverse(spec, n) if snapshots is None else snapshots[m]
        energy = v * v
        for symbol in (r1, r2):
            riesz = spectral.inverse(symbol * spec, n)
            energy += riesz * riesz
        energy *= t ** (k / b)
        for weights, density in zip(cells, densities):
            if weights[m] > 0:
                density += weights[m] * energy
    best, box = -1.0, None
    for j, (r, density) in enumerate(zip(radii, densities), start=1):
        vals = r ** (2 * a + 2 * b - 4) * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, sweep.stride(grid, j))
        if val > best:
            best, box = val, CarlesonBox(center, r)
    partial = any(trajectory_weights(times, r ** (2 * b), a / b)[1] for r in radii)
    return besov, when, math.sqrt(max(best, 0.0)), box, partial


def caloric_spectra(f, params, times):
    spec = spectral.forward(f.values - f.values.mean())
    lam = spectral.half(ops.dissipation_symbol(f.grid, 2 * params.beta))
    return [np.exp(-t * lam) * spec for t in times]


def report_parts(report):
    return (report.parts["besov"], report.attaining_time, report.parts["carleson"],
            report.attaining_box, report.partial_coverage)


class TestBesovPruning:
    """The two-pass `norms._solution_parts`: Carleson planes only at nodes a
    radius that can still win holds, block planes only at nodes whose l1
    bound can still set the Besov sup, with the exhaustive loop's answer."""

    @staticmethod
    def bound_cases(n, rng):
        noise = rng.standard_normal((n, n))
        delta = np.zeros((n, n))
        delta[rng.integers(n), rng.integers(n)] = 1.0
        aligned = spectral.inverse(np.abs(spectral.forward(rng.standard_normal((n, n)))), n)
        nyquist_row = np.outer((-1.0) ** np.arange(n), rng.standard_normal(n))
        return {"noise": noise, "delta": delta, "aligned": aligned, "nyquist_row": nyquist_row}

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_bound_dominates_block_sum(self, n):
        grid = GridSpec(n, L)
        masks = norms._block_masks(grid)
        rng = np.random.default_rng(8191 + n)
        for t in (0.3, 1.0, 4.0):
            weight = t ** ((2 * 0.75 - 1) / (2 * 0.75))
            for kind, v in self.bound_cases(n, rng).items():
                spec = spectral.forward(v - v.mean())
                block_sum = weight * float(norms._spectrum_block_sups(spec, masks, n).sum())
                bound = weight * norms._spectrum_measures(spec, n)[0]
                assert block_sum <= bound * (1 + norms._BOUND_MARGIN), (n, kind)
                if kind == "delta":   # the tight case: every mode in phase at one point
                    assert block_sum == pytest.approx(bound, rel=1e-13), n

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_carleson_bound_dominates_value(self, n):
        # a radius's value is at most factor * (max ball sum of its partial
        # density + mass still to come), and at most factor * its total mass
        grid = GridSpec(n, L)
        sweep = BoxSweepConfig({16: 3, 64: 5, 256: 7}[n])   # the deepest sweep
        rng = np.random.default_rng(8194 + n)
        r1 = spectral.half(ops.riesz_symbol(grid, 1))
        r2 = spectral.half(ops.riesz_symbol(grid, 2))
        parts = {}
        for kind, v in self.bound_cases(n, rng).items():
            if kind == "nyquist_row":
                continue
            spec = spectral.forward(v - v.mean())
            energy = sum(p * p for p in spectral.inverse(np.stack([spec, r1 * spec, r2 * spec]), n))
            _, e, q = norms._spectrum_measures(spec, n)
            parts[kind] = energy, 2 * math.ldexp(q, 2 * e)
        kinds = list(parts)
        for head, tail in zip(kinds, kinds[1:] + kinds[:1]):
            (energy, mass), (later, later_mass) = parts[head], parts[tail]
            for m, r in enumerate(sweep.radii(grid), start=1):
                stride = sweep.stride(grid, m)
                value = best_center(box_sums(energy + later, grid, r, "ball"), grid, stride)[0]
                reach = best_center(box_sums(energy, grid, r, "ball"), grid, stride)[0]
                assert value <= (reach + later_mass) * (1 + norms._BOUND_MARGIN), (n, head, r)
                assert value <= (mass + later_mass) * (1 + norms._BOUND_MARGIN), (n, head, r)

    def test_exact_tie_keeps_the_larger_radius(self, grid32, params):
        search = norms._RadiusSweep(grid32, BoxSweepConfig())
        for i in (2, 0, 1):
            search.offer(i, np.ones((32, 32)))
        assert (search.best, search.box.radius) == (1.0, L / 2)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            search.offer(1, np.full((32, 32), np.nan))   # not swallowed by a comparison
        # zero data: every radius is worth exactly 0 and the smallest finishes first
        times = np.array([0.25, 0.5, 1.0])
        zero = Trajectory(times, tuple(RealField.zero(grid32) for _ in times))
        assert x_norm(zero, params).attaining_box.radius == L / 2
        assert caloric_minus1_norm(RealField.zero(grid32), params).attaining_box.radius == L / 2

    def test_radius_near_its_bound_is_kept(self, grid32):
        # Point masses A at node 0 (radius 2) and B = 1.03 A at node 1
        # (radius 0, and radius 1 with weight 1/2).  Radius 2 finishes first
        # with A; radius 0's bound B is attained, so it must stay and win.
        search = norms._RadiusSweep(grid32, BoxSweepConfig(), [1.0, 1.0, 1.0])
        weights = np.array([[0, 1], [0, 0.5], [1, 0]], float)
        levels = [1.0, 1.03]
        zero = np.zeros((32, 17), dtype=complex)

        def rows(g):
            yield zero

        def energy(g, plane):
            point = np.zeros((32, 32))
            point[0, 0] = levels[g]
            return point

        search.stream(weights, levels, rows, energy, 1)
        assert search.box == CarlesonBox((0.0, 0.0), L / 2)
        assert search.best == pytest.approx(1.03 * grid32.cell_area, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_partial_density_raises_and_never_prunes(self, grid32, bad):
        # Radius 2 finishes first, at node 1, and far ahead.  Node 2, held by
        # radii 0 and 1, is non-finite, and so is its mass: finite masses
        # would drop both radii before node 2 and hide it.
        search = norms._RadiusSweep(grid32, BoxSweepConfig(), [1.0, 1.0, 1.0])
        weights = np.array([[0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]], float)
        levels = [1e6, 1e-6, bad, 1e-6, 1e-6, 1e-6]
        masses = [level * 32 * 32 for level in levels]
        zero = np.zeros((32, 17), dtype=complex)

        def rows(g):
            yield zero

        def energy(g, plane):
            return np.full((32, 32), levels[g])

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="density"):
            search.stream(weights, masses, rows, energy, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_shared_partial_density_raises_and_never_prunes(self, grid32, bad):
        # As above with weights of the trajectory form (each radius weighs
        # the nodes before its last as radius 0 does), so the unfinished
        # radii hold one partial density: radius 2 finishes at node 1 far
        # ahead, node 2 is non-finite, and finite masses would drop radii 0
        # and 1 before it.
        search = norms._RadiusSweep(grid32, BoxSweepConfig(), [1.0, 1.0, 1.0])
        weights = np.array([[1, 1e-9, 1, 1], [1, 1e-9, 1, 0], [1, 1, 0, 0]], float)
        levels = [1e-6, 1e6, bad, 1e-6]
        masses = [level * 32 * 32 for level in levels]
        zero = np.zeros((32, 17), dtype=complex)

        def rows(g):
            yield zero

        def energy(g, plane):
            return np.full((32, 32), levels[g])

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="density"):
            search.stream(weights, masses, rows, energy, 1)

    @pytest.mark.parametrize("n", [32, 64])
    def test_caloric_matches_exhaustive_oracle(self, params, n):
        grid = GridSpec(n, L)
        sweep = BoxSweepConfig()
        times = caloric_coverage_times(grid, params)
        for f in band_limited_corpus(grid, count=4, max_mode=n // 8 - 1, seed=8191):
            want = exhaustive_parts(times, caloric_spectra(f, params, times), None,
                                    grid, params, 0, sweep)
            assert report_parts(caloric_minus1_norm(f, params, sweep)) == want

    def test_x_norm_matches_exhaustive_oracle(self, params, corpus32):
        times = caloric_coverage_times(corpus32[0].grid, params, num_nodes=24)
        rng = np.random.default_rng(8192)

        def random_mix():
            weights = rng.standard_normal(len(corpus32))
            return RealField(corpus32[0].grid, sum(c * g.values for c, g in zip(weights, corpus32)))

        irregular = Trajectory(times, tuple(random_mix() for _ in times))
        # constant in time and spread over the torus: the largest radius wins,
        # so no radius may be dropped
        spread = full_coverage_trajectory(
            field_from_function(corpus32[0].grid, lambda x1, x2: np.sin(x1)), params, 24)
        for traj in (irregular, caloric_trajectory(corpus32[1], params, times),
                     self.decoy_trajectory(corpus32[0].grid, params), spread):
            centered = [s.values - s.values.mean() for s in traj.snapshots]
            spectra = [spectral.forward(v) for v in centered]
            want = exhaustive_parts(traj.times, spectra, centered, traj.grid, params, 0,
                                    BoxSweepConfig())
            assert report_parts(x_norm(traj, params)) == want
        assert want[3].radius == L / 2

    @staticmethod
    def decoy_trajectory(grid, params):
        """A delta at t = 0.5, then white noise at t = 1 whose bound is far
        larger but whose weighted block sum is 3% smaller: the noise node is
        visited first, and only a bound check within the margin reaches the
        delta that attains the sup."""
        n = grid.n
        w = (2 * params.beta - 1) / (2 * params.beta)
        delta = np.zeros((n, n))
        delta[5, 7] = 1.0
        noise = np.random.default_rng(8193).standard_normal((n, n))
        masks = norms._block_masks(grid)

        def weighted_sum(t, v):
            spec = spectral.forward(v - v.mean())
            return t ** w * float(norms._spectrum_block_sups(spec, masks, n).sum())

        noise *= 0.97 * weighted_sum(0.5, delta) / weighted_sum(1.0, noise)
        return Trajectory(np.array([0.5, 1.0]), (RealField(grid, delta), RealField(grid, noise)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_x_k_norm_matches_exhaustive_oracle(self, params, corpus32, k):
        grid = corpus32[0].grid
        times = caloric_coverage_times(grid, params, num_nodes=24)
        traj = caloric_trajectory(corpus32[2], params, times)
        best = None
        for a1 in range(k, -1, -1):
            symbol = spectral.half(ops.mixed_derivative_symbol(grid, a1, k - a1))
            spectra = [symbol * spectral.forward(s.values - s.values.mean())
                       for s in traj.snapshots]
            parts = exhaustive_parts(times, spectra, None, grid, params, k, BoxSweepConfig())
            if best is None or parts[0] + parts[2] > best[0] + best[2]:
                best = parts
        assert report_parts(x_k_norm(traj, params, k)) == best

    def test_picard_measures_match_exhaustive_oracle(self, grid32, params, monkeypatch):
        real = norms._solution_parts
        checked = []

        def checking(times, spectrum, grid, params_, k, sweep):
            comp = real(times, spectrum, grid, params_, k, sweep)
            want = exhaustive_parts(times, [spectrum(m) for m in range(len(times))],
                                    None, grid, params_, k, sweep)
            checked.append((comp["besov"], comp["time"], comp["carleson"], comp["box"],
                            comp["partial"]) == want)
            return comp

        monkeypatch.setattr(norms, "_solution_parts", checking)
        theta0 = 0.3 * field_from_function(grid32, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
        _, report = picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16), max_iter=3))
        assert len(checked) == 1 + 2 * report.iterations   # base, then increment and iterate
        assert all(checked)

    def test_block_planes_only_at_evaluated_nodes(self, monkeypatch):
        cfg = ExperimentConfig()
        grid, params = cfg.grid, cfg.params
        f = band_limited_corpus(grid, 1, grid.n // 8 - 1, cfg.seed)[0]   # as run_scaling_invariance
        sweep = deepest_sweep(grid, cfg.sweep)
        times = caloric_coverage_times(grid, params)
        spectra = caloric_spectra(f, params, times)
        asked = []

        def spectrum(m):
            asked.append(m)
            return spectra[m]

        inverse = spectral.inverse
        planes = []

        def counting_inverse(spec, n):
            planes.append(int(np.prod(spec.shape[:-2])))
            return inverse(spec, n)

        monkeypatch.setattr(spectral, "inverse", counting_inverse)
        comp = norms._solution_parts(times, spectrum, grid, params, 0, sweep)
        count = len(times)
        assert asked[:count] == list(range(count))   # the measures, in order
        streamed = 12                                # of 48 nodes, read-ahead included
        assert asked[count:count + streamed] == list(range(streamed))   # the Carleson stream
        evaluated = asked[count + streamed:]
        assert len(set(evaluated)) == len(evaluated) == 9
        assert comp["time"] in times[evaluated]
        blocks = len(ops.block_levels(grid))
        # snapshot and two Riesz planes for 11 2/3 nodes (the last batch cut
        # short), box sums of the two finished radii and 4 ball-sum bounds,
        # then the block planes of the evaluated nodes
        assert sum(planes) == 35 + 2 + 4 + blocks * len(evaluated)

    def test_zero_field_reports_first_time(self, grid32, params):
        times = np.array([0.25, 0.5, 1.0])
        zero = Trajectory(times, tuple(RealField.zero(grid32) for _ in times))
        assert x_norm(zero, params).attaining_time == 0.25
        report = caloric_minus1_norm(RealField.zero(grid32), params)
        assert report.attaining_time == caloric_coverage_times(grid32, params)[0]

    def test_x_norm_transforms_each_snapshot_once(self, monkeypatch):
        # one forward transform per snapshot plus one per box sum: the
        # Carleson and Besov passes read the held half spectra
        cfg = ExperimentConfig()
        traj, _ = picard_solve(1e-3 * wellposedness_data(cfg.grid), cfg.params,
                               cfg.solver_config())
        x_norm(traj, cfg.params, cfg.sweep)   # fills the mask-spectrum caches
        forwards, sums = [], []
        forward, real_box_sums = spectral.forward, norms.box_sums

        def counting_forward(values):
            forwards.append(values.shape)
            return forward(values)

        def counting_box_sums(*args):
            sums.append(args[2])
            return real_box_sums(*args)

        monkeypatch.setattr(spectral, "forward", counting_forward)
        monkeypatch.setattr(norms, "box_sums", counting_box_sums)
        x_norm(traj, cfg.params, cfg.sweep)
        assert len(forwards) == len(traj) + len(sums) == 34

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bound_raises(self, smooth32, params, bad):
        times = np.array([0.25, 0.5, 1.0])
        good = spectral.forward(smooth32.values)

        def spectrum(m):
            return good * bad if m == 1 else good

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            norms._solution_parts(times, spectrum, smooth32.grid, params, 0,
                                  BoxSweepConfig())


def amplitude_estimators(params):
    return {
        "caloric": lambda f: caloric_minus1_norm(f, params).value,
        "morrey2": lambda f: morrey_norm(f, 2, 1.0).value,
        "direct": lambda f: q_norm_direct(f, params).value,
    }


def trajectory_estimators(params):
    return {
        "x": lambda traj: x_norm(traj, params).value,
        "x_k1": lambda traj: x_k_norm(traj, params, 1).value,
        "x_k2": lambda traj: x_k_norm(traj, params, 2).value,
        "carleson_l1": lambda traj: carleson_l1_functional(traj, params).value,
    }


@pytest.mark.parametrize("kind", ["x", "x_k1", "x_k2", "carleson_l1"])
def test_trajectory_homogeneous_over_all_amplitudes(params, corpus32, kind):
    est = trajectory_estimators(params)[kind]
    times = caloric_coverage_times(corpus32[0].grid, params, num_nodes=24)
    traj = caloric_trajectory(corpus32[0], params, times)
    base = est(traj)
    assert base > 0
    for c in AMPLITUDES:
        value = est(traj.scaled(c))
        assert isinstance(value, float) and math.isfinite(value)
        assert abs(value - c * base) <= 1e-12 * c * base, c


def test_carleson_l1_overflowing_density_raises(grid32, params):
    times = np.array([0.25, 0.5, 1.0])
    huge = RealField(grid32, np.full((32, 32), 1.7e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        carleson_l1_functional(Trajectory(times, (huge, huge, huge)), params)


@pytest.mark.parametrize("kind", ["caloric", "morrey2", "direct"])
def test_homogeneous_over_all_amplitudes(params, corpus32, kind):
    est = amplitude_estimators(params)[kind]
    f = corpus32[0]
    base = est(f)
    assert base > 0
    for c in AMPLITUDES:
        value = est(c * f)
        assert isinstance(value, float) and math.isfinite(value)
        assert abs(value - c * base) <= 1e-12 * c * base, c


@pytest.mark.parametrize("kind", ["caloric", "morrey2", "direct"])
def test_non_finite_input_raises(params, grid32, kind):
    est = amplitude_estimators(params)[kind]
    bad = RealField.zero(grid32)
    values = np.zeros((32, 32))
    values[3, 5] = np.inf
    object.__setattr__(bad, "values", values)   # past RealField's own check
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        est(bad)
