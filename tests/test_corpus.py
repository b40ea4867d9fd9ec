import numpy as np
import pytest

from qsqg import GridSpec, band_limited_corpus, half_lattice_modes, spectral
from qsqg.corpus import _render_corpus

L = 2 * np.pi


def per_mode_corpus(grid, count, max_mode, seed):
    """The corpus drawn and placed one mode at a time, as a reference for
    the vectorised placement."""
    modes = half_lattice_modes(max_mode)
    rng = np.random.default_rng(seed)
    n = grid.n
    fields = []
    for _ in range(count):
        draws = rng.standard_normal((len(modes), 2))
        coeff = np.zeros((n, n), dtype=complex)
        for (k1, k2), (re, im) in zip(modes, draws):
            c = (re + 1j * im) / np.sqrt(2.0)
            coeff[k1 % n, k2 % n] = c
            coeff[-k1 % n, -k2 % n] = np.conj(c)
        fields.append(spectral.inverse(spectral.half(coeff), n) * n * n / np.sqrt(len(modes)))
    return fields


class TestHalfLattice:
    def test_lexicographic_order_and_no_conjugate_duplicates(self):
        modes = half_lattice_modes(3)
        assert modes == sorted(modes)
        seen = set(modes)
        assert len(seen) == len(modes)
        for k1, k2 in modes:
            assert (k1, k2) != (0, 0)
            assert k1 > 0 or (k1 == 0 and k2 > 0)
            assert (-k1, -k2) not in seen
            assert k1 * k1 + k2 * k2 <= 9

    def test_mode_count_grows_with_band(self):
        assert len(half_lattice_modes(2)) < len(half_lattice_modes(5))


class TestCorpus:
    def test_deterministic(self, grid32):
        a = band_limited_corpus(grid32, count=3, max_mode=4, seed=11)
        b = band_limited_corpus(grid32, count=3, max_mode=4, seed=11)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_seed_sensitivity(self, grid32):
        a = band_limited_corpus(grid32, count=1, max_mode=4, seed=11)[0]
        b = band_limited_corpus(grid32, count=1, max_mode=4, seed=12)[0]
        assert np.abs(a.values - b.values).max() > 1e-6

    def test_fields_are_mean_zero(self, corpus32):
        for f in corpus32:
            assert abs(f.mean()) <= 1e-14

    def test_resolution_independence(self):
        coarse = band_limited_corpus(GridSpec(32, L), count=3, max_mode=4, seed=11)
        fine = band_limited_corpus(GridSpec(64, L), count=3, max_mode=4, seed=11)
        for fc, ff in zip(coarse, fine):
            assert np.abs(ff.values[::2, ::2] - fc.values).max() <= 1e-13

    def test_amplitude_normalization(self, corpus32):
        # unit-variance coefficients scaled by 1/sqrt(mode count): O(1) fields
        for f in corpus32:
            assert 0.05 < f.values.std() < 5.0

    def test_band_validation(self, grid32):
        with pytest.raises(ValueError):
            band_limited_corpus(grid32, count=1, max_mode=16, seed=1)  # >= N/2
        with pytest.raises(ValueError):
            band_limited_corpus(grid32, count=1, max_mode=0, seed=1)

    def test_default_band_is_n_over_six(self, grid32):
        default = band_limited_corpus(grid32, count=1, seed=11)[0]
        explicit = band_limited_corpus(grid32, count=1, max_mode=32 // 6, seed=11)[0]
        assert np.array_equal(default.values, explicit.values)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_per_mode_placement(self, n):
        # the list and the stream the experiments iterate, at the bands the
        # experiments draw at N too: N/6 (riesz, identity, lemmas), N/12
        # (riesz and identity when N is their refined grid), N/8 - 1 (scaling)
        grid = GridSpec(n, L)
        for max_mode in sorted({5, 10, n // 6, n // 12, max(2, n // 8 - 1)}):
            got = band_limited_corpus(grid, count=4, max_mode=max_mode, seed=8191)
            streamed = _render_corpus(grid, 4, max_mode, 8191)
            want = per_mode_corpus(grid, 4, max_mode, 8191)
            for f, g, values in zip(got, streamed, want, strict=True):
                assert np.array_equal(f.values, values), (n, max_mode)
                assert np.array_equal(g.values, values), (n, max_mode)
