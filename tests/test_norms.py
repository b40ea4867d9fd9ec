import math
import tracemalloc

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
    caloric_minus1_norm,
    carleson_l1_functional,
    field_from_function,
    linear_flow,
    morrey_norm,
    q_norm_semigroup,
    x_k_norm,
    x_norm,
)
from qsqg import norms
from qsqg import operators as ops
from qsqg import spectral
from qsqg.experiments import ExperimentConfig, deepest_sweep, wellposedness_data
from qsqg.norms import caloric_coverage_times
from qsqg.solver import SolverConfig, TimeGrid, picard_solve, scaling_transform
from qsqg.sweep import (
    _BOUND_MARGIN,
    CarlesonBox,
    _beaten,
    _RadiusSweep,
    best_center,
    box_sums,
    mask_point_count,
    spectrum_box_sums,
    trajectory_weights,
)

from oracles import (besov_sup_norm, block_sups, ladder_oracle, q_norm_direct,
                     shared_ladder_oracle)

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


def count_box_sums(monkeypatch) -> tuple[list[float], list[tuple[np.ndarray, float]]]:
    """The radii of the box sums the sweep driver makes from now on, and the
    spectrum and radius of each ball-sum bound it makes from a spectrum it
    holds (``spectrum_box_sums`` called other than through ``box_sums``)."""
    sums, bounded, inside = [], [], []

    def counting_box_sums(values, grid, radius, kind):
        sums.append(radius)
        inside.append(radius)
        try:
            return box_sums(values, grid, radius, kind)
        finally:
            inside.pop()

    def counting_spectrum_box_sums(spec, grid, radius, kind):
        if not inside:
            bounded.append((spec, radius))   # held, so distinct spectra keep distinct ids
        return spectrum_box_sums(spec, grid, radius, kind)

    monkeypatch.setattr("qsqg.sweep.box_sums", counting_box_sums)
    monkeypatch.setattr("qsqg.sweep.spectrum_box_sums", counting_spectrum_box_sums)
    return sums, bounded


def count_inverse_planes(monkeypatch) -> list[int]:
    """The planes of each inverse transform call from now on, in order,
    through both entry points, ``spectral.inverse`` and the in-place
    ``spectral.inverse_into``."""
    planes = []
    inverse, inverse_into = spectral.inverse, spectral.inverse_into

    def counting_inverse(spec, n):
        planes.append(int(np.prod(spec.shape[:-2])))
        return inverse(spec, n)

    def counting_inverse_into(spec, out, width=None):
        planes.append(int(np.prod(spec.shape[:-2])))
        return inverse_into(spec, out, width)

    monkeypatch.setattr(spectral, "inverse", counting_inverse)
    monkeypatch.setattr(spectral, "inverse_into", counting_inverse_into)
    return planes


class TestAxioms:
    """Zero fields map to zero, scaling a field scales the value by |c|."""

    def field_estimators(self, params):
        return [
            lambda f: besov_sup_norm(f, 1 - 2 * params.beta).value,
            lambda f: morrey_norm(f, 2, 1.0).value,
            lambda f: q_norm_direct(f, params).value,
            lambda f: q_norm_semigroup(f, params).value,
            lambda f: caloric_minus1_norm(f, params).value,
        ]

    def test_zero_field(self, grid32, params):
        zero = RealField.zero(grid32)
        for est in self.field_estimators(params):
            assert est(zero) == 0.0

    def test_field_homogeneity(self, smooth32, grid16, params):
        # the plain mean and spectrum of 5e306 (sin x1 + cos 2 x2) overflow
        for f, c in ((smooth32, -2.375), (wellposedness_data(grid16), 5e306)):
            for est in self.field_estimators(params):
                base = est(f)
                scaled = est(c * f)
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
            scaled = est(Trajectory(times, tuple(c * s for s in traj.snapshots)), params).value
            assert abs(scaled - c**order * base) <= 1e-12 * max(1.0, base)


class TestBesov:
    def test_weighted_sup(self, grid32):
        f = field_from_function(grid32, lambda x1, x2: np.cos(2 * x1))
        r = besov_sup_norm(f, -0.5)
        assert r.value == pytest.approx(2.0**-0.5, abs=1e-12)

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
            box = ladder_oracle(f, params, BoxSweepConfig(), "morrey", gamma)
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


class TestLadderSweep:
    """`norms._ladder_sweep`, the shared-node sweep behind `q_norm_semigroup`."""

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    @pytest.mark.parametrize("n,radii", [(32, 3), (64, 5), (128, 3)])
    def test_matches_exhaustive_shared_oracle(self, a, b, n, radii):
        params = SpaceParams(a, b)
        sweep = BoxSweepConfig(radii)
        grid = GridSpec(n, L)
        fields = list(band_limited_corpus(grid, count=3, max_mode=n // 6, seed=8191))
        fields.append(field_from_function(grid, lambda x1, x2: np.sin(x1)))
        for f in fields:
            report = q_norm_semigroup(f, params, sweep)
            assert (report.value, report.attaining_box) == \
                shared_ladder_oracle(f, params, sweep), (n, radii)

    # the two ladder shapes: nodes shared between radii, and nothing shared
    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    def test_zero_field_ties_keep_the_largest_radius(self, grid32, a, b):
        # every radius is worth exactly 0 and the smallest finishes first
        report = q_norm_semigroup(RealField.zero(grid32), SpaceParams(a, b))
        assert report.value == 0.0
        assert report.attaining_box.radius == L / 2

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    @pytest.mark.parametrize("n,radii", [(32, 3), (64, 3), (64, 5)])
    def test_matches_per_radius_oracle(self, a, b, n, radii):
        params = SpaceParams(a, b)
        sweep = BoxSweepConfig(radii)
        for f in band_limited_corpus(GridSpec(n, L), count=2, max_mode=n // 6, seed=8191):
            got = q_norm_semigroup(f, params, sweep).value
            want = ladder_oracle(f, params, sweep, "q")
            assert got == pytest.approx(want, rel=1e-13, abs=0), (n, radii)

    @pytest.mark.parametrize("a,b,radii,nodes,ball_bounds,planes", [
        (0.25, 0.75, 3, 15, 0, 54),   # shift of 6 nodes: 15 + 6 + 6 distinct
        (0.3, 0.8, 3, 25, 0, 90),     # shift of 6.4 nodes: nothing shared
        (0.25, 0.75, 4, 15, 1, 66),   # 15 + 6 + 6 + 6 distinct
        (0.3, 0.8, 4, 25, 1, 120),    # the same bound with nothing shared
    ])
    def test_transform_budget(self, grid64, monkeypatch, a, b, radii, nodes, ball_bounds, planes):
        f = band_limited_corpus(grid64, count=1, max_mode=10, seed=8191)[0]
        params, sweep = SpaceParams(a, b), BoxSweepConfig(radii)
        counted = count_inverse_planes(monkeypatch)
        q_norm_semigroup(f, params, sweep)
        # Gradient planes of one node per call up to the smallest radius's
        # last node (node 15, or 25 when nothing is shared); then box sums:
        # the smallest radius attains the sup and the larger ones fall to
        # their bounds, transform-free but for one ball-sum bound when four
        # radii are swept: radius L/8's partial density is box-summed and
        # dropped.
        assert counted[:nodes] == [2] * nodes
        assert sum(counted) == 2 * nodes + 1 + ball_bounds
        counted.clear()
        monkeypatch.setattr(_RadiusSweep, "_beaten_at", lambda *args: False)
        q_norm_semigroup(f, params, sweep)
        # unpruned: every node's gradient planes, then one box sum per radius
        assert sum(counted) == planes + radii

    @pytest.mark.parametrize("a,b,nodes,more", [
        (0.25, 0.75, 15, 6),    # shift of 6 nodes
        (0.3, 0.8, 25, 13),     # nothing shared
    ])
    def test_pointwise_cap_drops_radii_the_mass_bound_keeps(self, grid64, monkeypatch, a, b,
                                                            nodes, more):
        # cos(3 x1 - 5 x2) spreads its gradient energy over the torus: a ball
        # of radius L/16 has 45 lattice points and holds at most 45 |k|^2
        # of each node's energy, about 1/45 of its total N^2 |k|^2 / 2.
        # Once radius L/32 finishes at its last node, the capped
        # transform-free bound drops every other radius: the smallest
        # radius's nodes' gradient planes, then one box sum.
        f = field_from_function(grid64, lambda x1, x2: np.cos(3 * x1 - 5 * x2))
        params, sweep = SpaceParams(a, b), BoxSweepConfig(5)
        counted = count_inverse_planes(monkeypatch)
        report = q_norm_semigroup(f, params, sweep)
        assert counted == [2] * nodes + [1]
        assert (report.value, report.attaining_box) == shared_ladder_oracle(f, params, sweep)
        # With each node charged its total alone, radii L/8 and L/16 survive
        # their ball-sum bounds: ``more`` nodes until L/16 finishes, its box
        # sum, and a last ball-sum bound that drops L/8.
        counted.clear()
        monkeypatch.setattr(_RadiusSweep, "charges", lambda self, masses, peaks: masses)
        assert q_norm_semigroup(f, params, sweep) == report
        assert counted == [2] * nodes + [1] * 3 + [2] * more + [1] * 2

    @pytest.mark.parametrize("n,kib", [(64, 1285), (128, 2168)])
    def test_traced_peak_of_one_call(self, n, kib):
        # at or below the peak of the chunked-inverse stream this replaced,
        # and every buffer is let go when the call returns
        grid, params = GridSpec(n, L), SpaceParams(0.25, 0.75)
        f = band_limited_corpus(grid, count=1, max_mode=n // 6, seed=8191)[0]
        q_norm_semigroup(f, params)   # fills the per-grid caches
        tracemalloc.start()
        try:
            q_norm_semigroup(f, params)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kib * 1024
        assert held < 16 * 1024

    def test_ladder_plan_is_cached_and_read_only(self, smooth32, params):
        sweep = BoxSweepConfig()
        plan = norms._ladder_plan(smooth32.grid, sweep, params.alpha, params.beta)
        hits = norms._ladder_plan.cache_info().hits
        q_norm_semigroup(smooth32, params, sweep)
        assert norms._ladder_plan.cache_info().hits == hits + 1
        for part in plan:
            if isinstance(part, np.ndarray):
                assert not part.flags.writeable

    def test_added_radius_leaves_common_radii_bit_identical(self, grid32, params):
        # modes |k| <= 2: four of these six fields attain the Q norm at L/8
        compared = 0
        for f in band_limited_corpus(grid32, count=6, max_mode=2, seed=7113):
            small = q_norm_semigroup(f, params, BoxSweepConfig(3))
            big = q_norm_semigroup(f, params, BoxSweepConfig(4))
            if big.attaining_box.radius >= L / 8:
                assert big.value == small.value
                assert big.attaining_box == small.attaining_box
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    def test_homogeneous_over_all_amplitudes(self, corpus32, a, b):
        params = SpaceParams(a, b)
        f = corpus32[0]
        base = q_norm_semigroup(f, params).value
        assert base > 0
        for c in (1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300):
            value = q_norm_semigroup(c * f, params).value
            assert math.isfinite(value)
            assert abs(value - c * base) <= 1e-12 * c * base, c

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.3, 0.8)])
    def test_non_finite_input_raises(self, grid32, a, b):
        params = SpaceParams(a, b)
        bad = RealField.zero(grid32)
        values = np.zeros((32, 32))
        values[3, 5] = np.inf
        object.__setattr__(bad, "values", values)   # past RealField's own check
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                q_norm_semigroup(bad, params)
        # a finite constant near the largest double has zero seminorm
        huge = RealField(grid32, np.full((32, 32), 1.5e308))
        assert q_norm_semigroup(huge, params).value == 0.0


class TestRateTable:
    """`norms._rate_levels` and the node table of `norms._node_tables`,
    which the semigroup ladders and the caloric norm share."""

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("beta", [0.75, 0.8])
    def test_levels_reconstruct_the_half_symbol(self, n, beta):
        # at L = 1 the float levels outnumber the |k|^2 classes (489 vs 457 at N = 64)
        for grid in (GridSpec(n, L), GridSpec(n, 1.0)):
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
        table, _ = norms._node_tables(grid, 0.75, times)
        level_of = norms._rate_levels(grid, 0.75)[1]
        index, plane = level_of.astype(np.intp), np.empty(lam.shape)
        for m, t in enumerate(times):
            want = np.exp(-t * lam)
            assert np.array_equal(table[m].take(level_of), want), (n, t)
            assert np.array_equal(table[m].take(index, out=plane, mode="clip"), want), (n, t)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_measures_match_per_node_oracle(self, n, params):
        grid = GridSpec(n, L)
        f = band_limited_corpus(grid, count=1, max_mode=n // 6, seed=8191)[0]
        spec = spectral.forward(f.values - f.values.mean())
        lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
        times = np.concatenate([caloric_coverage_times(grid, params),
                                np.geomspace(1e-4, 6.0, 28)])
        measures = norms._caloric_measures(spec, grid, params.beta,
                                           *norms._node_tables(grid, params.beta, times))
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

    def test_xk_transforms_each_snapshot_once(self, grid32, params, monkeypatch):
        # at k >= 1 the snapshot spectra are held for all k + 1 multi-indices
        # and both passes: one forward transform per snapshot, one per box
        # sum, and one per partial density whose ball sums bound a radius
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1) + 0.3 * np.cos(2 * x2 - x1))
        traj = linear_flow(f, TimeGrid(1.0, 32), params)
        x_k_norm(traj, params, 2)   # fills the mask-spectrum caches
        forwards = []
        forward = spectral.forward

        def counting_forward(values):
            forwards.append(values.shape)
            return forward(values)

        monkeypatch.setattr(spectral, "forward", counting_forward)
        sums, bounded = count_box_sums(monkeypatch)
        x_k_norm(traj, params, 2)
        assert forwards.count((32, 32)) == len(forwards)
        spectra = len({id(spec) for spec, _ in bounded})
        assert len(forwards) == len(traj) + len(sums) + spectra

    def test_x_norm_peak_does_not_grow_with_node_count(self, grid64, params):
        # the snapshot spectra are made when read, not held: 32 nodes peak
        # within one 8-node stack of half spectra of what 8 nodes do
        data = 1e-3 * wellposedness_data(grid64)
        times = TimeGrid(1.0, 32).times

        def traced_peak(count):
            nodes = times[::32 // count]
            traj = Trajectory(nodes, tuple(float(np.exp(-t)) * data for t in nodes))
            x_norm(traj, params)   # fills the per-grid caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                x_norm(traj, params)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        stack8 = 8 * 64 * spectral.half_width(64) * np.dtype(complex).itemsize
        assert traced_peak(32) - traced_peak(8) < stack8

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


def centred_gaussian_derivative(grid, sigma):
    """Mean-zero d1 exp(-|x - c|^2 / (2 sigma^2)), c the domain's centre."""
    c = grid.length / 2

    def fn(x1, x2):
        r2 = (x1 - c) ** 2 + (x2 - c) ** 2
        return -(x1 - c) / sigma**2 * np.exp(-r2 / (2 * sigma**2))

    f = field_from_function(grid, fn)
    return RealField(grid, f.values - f.values.mean())


class TestTorusDoubling:
    # (N, L) = (64, 2 pi) with 3 radii against (128, 4 pi) with 4: same
    # spacing, same physical radii, so a torus-size effect is all that moves
    # the Q norm and the Riesz ratios.  Measured: Q drifts 3.7e-6 (sigma 0.2)
    # and 4.2e-5 (0.4); the ratios 7.9e-5 and 6.8e-4.
    @pytest.mark.parametrize("sigma, ratio_tol", [(0.2, 1e-4), (0.4, 1e-3)])
    def test_q_norm_and_riesz_ratios_hold_on_doubled_torus(self, params, sigma, ratio_tol):
        measured = []
        for n, length, radii in ((64, L, 3), (128, 2 * L, 4)):
            f = centred_gaussian_derivative(GridSpec(n, length), sigma)
            sweep = BoxSweepConfig(radii)
            q = q_norm_semigroup(f, params, sweep).value
            ratios = [q_norm_semigroup(ops.riesz_transform(f, j), params, sweep).value / q
                      for j in (1, 2)]
            measured.append((q, ratios))
        (q_small, ratios_small), (q_large, ratios_large) = measured
        assert abs(q_large - q_small) < 1e-4 * q_small
        for small, large in zip(ratios_small, ratios_large):
            assert abs(large - small) < ratio_tol * small


AMPLITUDES = (1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300, 5e306)


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
        rng = np.random.default_rng(8191 + n)
        for t in (0.3, 1.0, 4.0):
            weight = t ** ((2 * 0.75 - 1) / (2 * 0.75))
            for kind, v in self.bound_cases(n, rng).items():
                spec = spectral.forward(v - v.mean())
                block_sum = weight * float(norms._block_sups_below(spec, grid, 1.0, -1.0).sum())
                bound = weight * norms._spectrum_measures(spec, n)[0]
                assert block_sum <= bound * (1 + _BOUND_MARGIN), (n, kind)
                if kind == "delta":   # the tight case: every mode in phase at one point
                    assert block_sum == pytest.approx(bound, rel=1e-13), n

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_wiener_sum_bounds_each_block(self, n):
        # the per-block bound the Besov pass abandons a node by:
        # sup |P_l f| <= W_l = sum over block l of colw |f^| / N^2
        grid = GridSpec(n, L)
        masks = norms._block_plan(grid)[0]
        colw = norms._column_weights(n)
        rng = np.random.default_rng(8195 + n)
        for kind, v in self.bound_cases(n, rng).items():
            spec = spectral.forward(v - v.mean())
            sups = norms._block_sups_below(spec, grid, 1.0, -1.0)
            wiener = np.array([float((colw * np.abs(np.where(mask, spec, 0.0))).sum()) / (n * n)
                               for mask in masks])
            assert (sups <= wiener * (1 + _BOUND_MARGIN)).all(), (n, kind)
            if kind == "delta":   # every mode of every block in phase at one point
                np.testing.assert_allclose(sups, wiener, rtol=1e-13, err_msg=str(n))
            assert norms._block_sups_below(spec, grid, 1.0, 2 * wiener.sum()) is None

    @pytest.mark.parametrize("n", [16, 64])
    def test_unabandonable_node_batches_its_remaining_blocks(self, n, monkeypatch):
        # best is the smallest block sup, so once the first block is made
        # weight times the sups made can no longer be beaten, and every
        # block is made, one per call
        grid = GridSpec(n, L)
        v = np.random.default_rng(8196 + n).standard_normal((n, n))
        spec = spectral.forward(v - v.mean())
        sups = block_sups(v - v.mean(), grid)[1]
        planes = count_inverse_planes(monkeypatch)
        assert np.array_equal(norms._block_sups_below(spec, grid, 1.0, sups.min()), sups)
        assert planes == [1] * len(sups)

    def test_bound_margin_keeps_values_within_rounding_of_their_bound(self):
        for b in (1.0, 3.7e-300, 2.5e300):
            assert not _beaten(b * (1 - 1e-12), b)
            assert _beaten(b * (1 - 1e-8), b)
            assert not _beaten(math.nan, b)
            assert not _beaten(b, math.nan)

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
                assert value <= (reach + later_mass) * (1 + _BOUND_MARGIN), (n, head, r)
                assert value <= (mass + later_mass) * (1 + _BOUND_MARGIN), (n, head, r)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_pointwise_cap_bounds_every_ball_sum(self, n):
        # What a node adds to a ball of radius r is at most the ball's point
        # count times the node's pointwise cap (``_RadiusSweep.charges``):
        # 2 W^2 for the energy |f|^2 + |R1 f|^2 + |R2 f|^2 of the trajectory
        # norms, with W the Wiener sum, and W_grad^2 for the Q ladder's
        # gradient energy.  Checked at every center, on corpus fields, a
        # single mode, and a field with all phases aligned (max |f| = W).
        grid = GridSpec(n, L)
        sweep = BoxSweepConfig({16: 3, 64: 5, 256: 7}[n])   # the deepest sweep
        search = _RadiusSweep(grid, sweep)
        r1 = ops._half_symbol(ops.riesz_symbol, grid, 1)
        r2 = ops._half_symbol(ops.riesz_symbol, grid, 2)
        im1, im2, magnitude = norms._gradient_symbols(grid)
        times = np.array([0.0, 0.05])
        table, squares = norms._node_tables(grid, 0.75, times)
        level_of = ops._rate_levels(grid, 0.75)[1]
        rng = np.random.default_rng(8199 + n)
        fields = {f"corpus{j}": g.values
                  for j, g in enumerate(band_limited_corpus(grid, 2, n // 8 - 1, seed=8191))}
        fields["mode"] = field_from_function(grid, lambda x1, x2: np.cos(3 * x1 - 5 * x2)).values
        fields["aligned"] = spectral.inverse(np.abs(spectral.forward(rng.standard_normal((n, n)))), n)
        for kind, v in fields.items():
            spec = spectral.forward(v - v.mean())
            wiener = norms._spectrum_measures(spec, n)[0]
            if kind == "aligned":
                assert np.abs(v - v.mean()).max() == pytest.approx(wiener, rel=1e-13)
            planes = spectral.inverse(np.stack([spec, r1 * spec, r2 * spec]), n)
            energies = [(np.square(planes).sum(axis=0), 2 * wiener ** 2)]
            measures = norms._caloric_measures(magnitude * np.abs(spec), grid, 0.75, table, squares)
            for g, (w_grad, _, _) in enumerate(measures):
                decayed = 1j * table[g].take(level_of) * spec
                grads = spectral.inverse(np.stack([decayed * im1, decayed * im2]), n)
                energies.append((np.square(grads).sum(axis=0), w_grad ** 2))
            for energy, peak in energies:
                caps = search.charges(np.inf, [peak])[:, 0]
                for r, cap in zip(search.radii, caps):
                    reach = box_sums(energy, grid, r, "ball").max()
                    assert reach <= cap * (1 + _BOUND_MARGIN), (n, kind, r)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_block_sups_equal_full_width_oracle(self, n):
        # each block is inverted on the columns it lives in (``_block_plan``),
        # with the sups of the oracle's full-width inverses, double for double
        grid = GridSpec(n, L)
        masks, widths = norms._block_plan(grid)
        for mask, width in zip(masks, widths):
            assert mask[:, width - 1].any() and not mask[:, width:].any()
        if n == 64:
            assert widths == (2, 4, 8, 16, 32, 33)
        rng = np.random.default_rng(8197 + n)
        for kind, v in self.bound_cases(n, rng).items():
            spec = spectral.forward(v - v.mean())
            sups = norms._block_sups_below(spec, grid, 1.0, -1.0)
            assert (sups == block_sups(v - v.mean(), grid)[1]).all(), (n, kind)

    def test_block_index_is_built_once_a_block_can_be_pruned(self, grid32, params,
                                                             monkeypatch):
        # sin x1 decays as one block, so its first node visited sets the sup
        # and the next node's bound falls short: no node is visited with a
        # best to beat, and no block index is built
        norms._block_index.cache_clear()
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1))
        times = caloric_coverage_times(grid32, params, num_nodes=24)
        x_norm(caloric_trajectory(f, params, times), params)
        assert norms._block_index.cache_info().currsize == 0
        # white noise at t = 1, whose Wiener bound is 4.5 times its block sum,
        # then the same noise at half its weighted size at t = 0.5: that node
        # is visited, its bound being above the sup, and abandoned
        w = (2 * params.beta - 1) / (2 * params.beta)
        noise = np.random.default_rng(8200).standard_normal((32, 32))
        traj = Trajectory(np.array([0.5, 1.0]), (RealField(grid32, 0.5 ** (1 - w) * noise),
                                                 RealField(grid32, noise)))
        visits = []
        block_sups_below = norms._block_sups_below

        def spying(*args):
            visits.append(block_sups_below(*args))
            return visits[-1]

        monkeypatch.setattr(norms, "_block_sups_below", spying)
        x_norm(traj, params)
        assert len(visits) == 2 and visits[1] is None
        assert norms._block_index.cache_info().currsize == 1

    def test_exact_tie_keeps_the_larger_radius(self, grid32, params):
        search = _RadiusSweep(grid32, BoxSweepConfig())
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
        search = _RadiusSweep(grid32, BoxSweepConfig(), [1.0, 1.0, 1.0])
        weights = np.array([[0, 1], [0, 0.5], [1, 0]], float)
        levels = [1.0, 1.03]
        zero = np.zeros((32, 17), dtype=complex)

        def rows(g, out):
            out[:] = zero

        def energy(g, planes):
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
        search = _RadiusSweep(grid32, BoxSweepConfig(), [1.0, 1.0, 1.0])
        weights = np.array([[0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]], float)
        levels = [1e6, 1e-6, bad, 1e-6, 1e-6, 1e-6]
        masses = [level * 32 * 32 for level in levels]
        zero = np.zeros((32, 17), dtype=complex)

        def rows(g, out):
            out[:] = zero

        def energy(g, planes):
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
        search = _RadiusSweep(grid32, BoxSweepConfig(), [1.0, 1.0, 1.0])
        weights = np.array([[1, 1e-9, 1, 1], [1, 1e-9, 1, 0], [1, 1, 0, 0]], float)
        levels = [1e-6, 1e6, bad, 1e-6]
        masses = [level * 32 * 32 for level in levels]
        zero = np.zeros((32, 17), dtype=complex)

        def rows(g, out):
            out[:] = zero

        def energy(g, planes):
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

        def weighted_sum(t, v):
            return t ** w * float(block_sups(v - v.mean(), grid)[1].sum())

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

    @staticmethod
    def checked_solution_parts(monkeypatch):
        """Patch norms._solution_parts to compare each call's result with
        exhaustive_parts; returns the list of those comparisons."""
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
        return checked

    def test_picard_measures_match_exhaustive_oracle(self, grid32, params, monkeypatch):
        checked = self.checked_solution_parts(monkeypatch)
        theta0 = 0.3 * field_from_function(grid32, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
        _, report = picard_solve(theta0, params, SolverConfig(TimeGrid(1.0, 16), max_iter=3))
        assert len(checked) == 1 + 2 * report.iterations   # base, then increment and iterate
        assert all(checked)

    @pytest.mark.parametrize("seed", [8191, 8198])
    def test_scaling_corpus_matches_exhaustive_oracle(self, seed):
        # the fields and grid of run_scaling_invariance, where most visited
        # nodes are abandoned after their largest blocks
        cfg = ExperimentConfig()
        grid, params = cfg.grid, cfg.params
        sweep = deepest_sweep(grid, cfg.sweep)
        times = caloric_coverage_times(grid, params)
        for f in band_limited_corpus(grid, 3, grid.n // 8 - 1, seed):
            for g in (f, scaling_transform(f, 2, params), scaling_transform(f, 4, params)):
                want = exhaustive_parts(times, caloric_spectra(g, params, times), None,
                                        grid, params, 0, sweep)
                assert report_parts(caloric_minus1_norm(g, params, sweep)) == want

    def test_single_mode_matches_exhaustive_oracle(self, grid64, params):
        f = field_from_function(grid64, lambda x1, x2: np.cos(3 * x1 - 5 * x2))
        times = caloric_coverage_times(grid64, params)
        want = exhaustive_parts(times, caloric_spectra(f, params, times), None,
                                grid64, params, 0, BoxSweepConfig())
        assert report_parts(caloric_minus1_norm(f, params)) == want

    def test_picard_trajectory_matches_exhaustive_oracle(self, monkeypatch):
        # the default wellposed grid and nodes at eps = 1
        cfg = ExperimentConfig()
        checked = self.checked_solution_parts(monkeypatch)
        config = SolverConfig(TimeGrid(cfg.horizon, cfg.solver_nodes), max_iter=2,
                              sweep=cfg.sweep)
        picard_solve(wellposedness_data(cfg.grid), cfg.params, config)
        assert len(checked) == 5 and all(checked)

    def test_exact_tie_keeps_the_earliest_node(self, grid32, params):
        # Nodes 0 and 1 hold the same spectrum at times whose weights
        # t^((2b-1)/(2b)) round to the same double, so their block sums tie
        # exactly.  Node 1's Wiener bound is passed doubled, so it is
        # visited and evaluated first; node 0 then goes block by block
        # against its own value, must not be abandoned, and wins the tie.
        times = np.array([1.0, np.nextafter(1.0, 2.0)])
        w = (2 * params.beta - 1) / (2 * params.beta)
        assert times[0] ** w == times[1] ** w
        f = field_from_function(grid32, lambda x1, x2: np.sin(x1) + 0.5 * np.cos(3 * x2))
        spectra = [spectral.forward(f.values)] * 2
        measures = [norms._spectrum_measures(spec, grid32.n) for spec in spectra]
        measures[1] = (2 * measures[1][0],) + measures[1][1:]
        sweep = BoxSweepConfig()
        comp = norms._solution_parts(times, spectra.__getitem__, grid32, params, 0, sweep,
                                     measures)
        want = exhaustive_parts(times, spectra, None, grid32, params, 0, sweep)
        assert (comp["besov"], comp["time"]) == want[:2]
        assert comp["time"] == times[0]

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

        planes = count_inverse_planes(monkeypatch)
        comp = norms._solution_parts(times, spectrum, grid, params, 0, sweep)
        count = len(times)
        assert asked[:count] == list(range(count))   # the measures, in order
        streamed = 11                                # of 48 nodes
        assert asked[count:count + streamed] == list(range(streamed))   # the Carleson stream
        evaluated = asked[count + streamed:]
        assert len(set(evaluated)) == len(evaluated) == 9
        assert comp["time"] in times[evaluated]
        blocks = len(ops.block_levels(grid))
        # snapshot and two Riesz planes of the 11 streamed nodes, one node
        # per call, box sums of the two finished radii and 4 ball-sum
        # bounds, then the first visited node's blocks, and 14 block planes
        # of the 8 later nodes, each abandoned block by block (every block
        # of all 9 would be 54), one block per call
        assert planes[:6] == [3] * 6
        assert planes[-(blocks + 14):] == [1] * (blocks + 14)
        assert sum(planes) == 3 * streamed + 2 + 4 + blocks + 14

    def test_zero_field_reports_first_time(self, grid32, params):
        times = np.array([0.25, 0.5, 1.0])
        zero = Trajectory(times, tuple(RealField.zero(grid32) for _ in times))
        assert x_norm(zero, params).attaining_time == 0.25
        report = caloric_minus1_norm(RealField.zero(grid32), params)
        assert report.attaining_time == caloric_coverage_times(grid32, params)[0]

    def test_x_norm_forwards_each_snapshot_when_read(self, monkeypatch):
        # no snapshot spectrum is held: one forward transform per snapshot
        # for the measures, one per node that the Carleson stream reads
        # (27 of 32) or the Besov pass visits (1), one per box sum (radius
        # L/8 finishes), and one for the partial density whose ball sums
        # drop radius L/4 (L/2 falls to its transform-free bound)
        cfg = ExperimentConfig()
        traj, _ = picard_solve(1e-3 * wellposedness_data(cfg.grid), cfg.params,
                               cfg.solver_config())
        x_norm(traj, cfg.params, cfg.sweep)   # fills the mask-spectrum caches
        forwards = []
        forward = spectral.forward

        def counting_forward(values):
            forwards.append(values.shape)
            return forward(values)

        monkeypatch.setattr(spectral, "forward", counting_forward)
        sums, bounded = count_box_sums(monkeypatch)
        x_norm(traj, cfg.params, cfg.sweep)
        assert sums == [L / 8] and [radius for _, radius in bounded] == [L / 4]
        assert len(forwards) == len(traj) + 27 + 1 + len(sums) + 1 == 62

    @pytest.mark.parametrize("kind", ["x", "caloric", "q"])
    def test_stream_makes_only_nodes_an_unfinished_radius_holds(self, corpus32, params,
                                                                kind, monkeypatch):
        # the shared trajectory stream (x_norm, caloric_minus1_norm) and the
        # unshared Q ladder: each node is made while a radius that is neither
        # finished nor dropped weighs it, is reduced before the next is made,
        # and none is made once every radius has ended.  On sin x1 the Q
        # ladder drops radius L/2 while L/4 is unfinished, and the nodes
        # that only L/2 holds are skipped.
        f = corpus32[0]
        run = {
            "x": lambda: x_norm(caloric_trajectory(
                f, params, caloric_coverage_times(f.grid, params, num_nodes=24)), params),
            "caloric": lambda: caloric_minus1_norm(f, params),
            "q": lambda: q_norm_semigroup(
                field_from_function(f.grid, lambda x1, x2: np.sin(x1)), SpaceParams(0.3, 0.8)),
        }[kind]
        real_stream = _RadiusSweep.stream
        streams = []

        def spying_stream(self, weights, masses, rows, energy, per_node):
            ended, made, reduced = set(), [], []
            finish, beaten_at = self.finish, self._beaten_at

            def ending_finish(i, density):
                ended.add(i)
                finish(i, density)

            def dropping_beaten_at(i, *args):
                dropped = beaten_at(i, *args)
                if dropped:
                    ended.add(i)
                return dropped

            def spying_rows(g, out):
                live = [i for i in range(len(weights)) if i not in ended]
                assert live, g
                assert any(weights[i, g] > 0 for i in live), g
                assert made == reduced, g
                made.append(g)
                rows(g, out)

            def spying_energy(g, planes):
                reduced.append(g)
                return energy(g, planes)

            self.finish, self._beaten_at = ending_finish, dropping_beaten_at
            real_stream(self, weights, masses, spying_rows, spying_energy, per_node)
            assert made == reduced
            assert ended == set(range(len(weights)))
            streams.append((len(made), weights.shape[1]))

        monkeypatch.setattr(_RadiusSweep, "stream", spying_stream)
        run()
        assert streams and all(made < count for made, count in streams), streams

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bound_raises(self, smooth32, params, bad):
        times = np.array([0.25, 0.5, 1.0])
        good = spectral.forward(smooth32.values)

        def spectrum(m):
            return good * bad if m == 1 else good

        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            norms._solution_parts(times, spectrum, smooth32.grid, params, 0,
                                  BoxSweepConfig())


def test_spectrum_measures_scale_exactly_up_to_the_largest_doubles(grid32):
    # under pytest's RuntimeWarning filter: the sums run on |spec| scaled by
    # 2^-e, so at 2^900 times the amplitude W is 2^900 times the double and
    # (e, q) shift by 900 with q the same double
    v = np.random.default_rng(8197).standard_normal((32, 32))
    spec = spectral.forward(v - v.mean())
    bound, e, q = norms._spectrum_measures(spec, 32)
    huge = norms._spectrum_measures(np.ldexp(spec.real, 900) + 1j * np.ldexp(spec.imag, 900), 32)
    assert huge == (math.ldexp(bound, 900), e + 900, q)


def test_x_norm_of_huge_finite_data_is_homogeneous(grid16, params):
    # finite 1e306 snapshots, under pytest's RuntimeWarning filter: both
    # passes run on spectra scaled by the same power of two, so neither the
    # Riesz energies nor the block inverses overflow; a power-of-two
    # amplitude gives the unit value's doubles scaled exactly
    times = np.array([0.25, 0.5, 1.0])
    unit = wellposedness_data(grid16)

    def parts(c):
        report = x_norm(Trajectory(times, tuple(c * unit for _ in times)), params)
        return np.array([report.parts["besov"], report.parts["carleson"], report.value])

    base = parts(1.0)
    assert (base > 0).all()
    huge = parts(1e306)
    assert np.isfinite(huge).all()
    assert (np.abs(huge - 1e306 * base) <= 1e-12 * 1e306 * base).all()
    assert np.array_equal(parts(2.0 ** 1016), np.ldexp(base, 1016))


@pytest.mark.parametrize("k", [0, 1])
def test_x_norm_overflowing_sum_of_finite_parts_raises(grid16, params, k):
    # 5e307 (sin x1 + cos 2 x2): besov 1.0e308 and carleson 1.5e308 are
    # finite, their sum is not; at 1e307 the sum is finite and homogeneous
    times = np.linspace(0.0625, 1.0, 16)
    unit = wellposedness_data(grid16)

    def value(c):
        return x_k_norm(Trajectory(times, tuple(c * unit for _ in times)), params, k).value

    base = value(1.0)
    huge = value(1e307)
    assert math.isfinite(huge)
    assert abs(huge - 1e307 * base) <= 1e-12 * 1e307 * base
    with pytest.raises(NonFiniteError, match="value overflows"):
        value(5e307)
    if k == 0:
        with pytest.raises(NonFiniteError, match="value overflows"):
            x_norm(Trajectory(times, tuple(5e307 * unit for _ in times)), params)


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
        value = est(Trajectory(traj.times, tuple(c * s for s in traj.snapshots)))
        assert isinstance(value, float) and math.isfinite(value)
        assert abs(value - c * base) <= 1e-12 * c * base, c


def test_carleson_l1_overflowing_density_raises(grid32, params):
    times = np.array([0.25, 0.5, 1.0])
    huge = RealField(grid32, np.full((32, 32), 1.7e308))
    # the scaled density is finite; the value, above the largest double, is not
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="value overflows"):
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
