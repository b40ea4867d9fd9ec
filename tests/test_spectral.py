"""The real-FFT spectral layer against the full-complex formulation it
replaced, which each test keeps as its reference.  N = 64 batches several
planes per inverse call and N = 256 one plane per call."""
import numpy as np
import pytest

from qsqg import GridSpec, RealField, SpaceParams, caloric_minus1_norm, x_norm
from qsqg import operators as ops
from qsqg import spectral
from qsqg.norms import _block_sups, caloric_coverage_times

from test_norms import caloric_trajectory

L = 2 * np.pi
SIZES = (16, 64, 256)
RTOL = 1e-13


def white_noise(n, seed=20):
    """Mean-zero field with content on every mode, Nyquist rows included."""
    v = np.random.default_rng(seed + n).standard_normal((n, n))
    return RealField(GridSpec(n, L), v - v.mean())


def rel_err(got, ref):
    return np.abs(np.asarray(got) - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("symbol", [
    lambda g: ops.riesz_symbol(g, 1),
    lambda g: ops.riesz_symbol(g, 2),
    lambda g: ops.derivative_symbol(g, 1),
    lambda g: ops.derivative_symbol(g, 2),
], ids=["riesz1", "riesz2", "d1", "d2"])
def test_odd_symbols_match_complex_transform(n, symbol):
    f = white_noise(n)
    s = symbol(f.grid)
    ref = np.fft.ifft2(s * np.fft.fft2(f.values)).real
    assert rel_err(ops.apply_lattice_symbol(f, s).values, ref) <= RTOL


@pytest.mark.parametrize("n", SIZES)
def test_block_sups_match_per_level_inverse(n):
    f = white_noise(n)
    spec = np.fft.fft2(f.values)
    levels = list(ops.block_levels(f.grid))
    ref = np.array([
        np.abs(np.fft.ifft2(np.where(ops._annulus_mask(f.grid, lv), spec, 0.0)).real).max()
        for lv in levels
    ])
    got_levels, sups = _block_sups(f.values, f.grid)
    assert got_levels == levels
    assert rel_err(sups, ref) <= RTOL


@pytest.mark.parametrize("n", SIZES)
def test_caloric_norm_matches_trajectory_x_norm(n):
    params = SpaceParams(0.25, 0.75)
    f = white_noise(n)
    times = caloric_coverage_times(f.grid, params)
    ref = x_norm(caloric_trajectory(f, params, times), params)
    got = caloric_minus1_norm(f, params)
    for key in ("besov", "carleson"):
        assert abs(got.parts[key] - ref.parts[key]) <= RTOL * ref.parts[key]
    assert abs(got.value - ref.value) <= RTOL * ref.value
    assert got.partial_coverage == ref.partial_coverage


@pytest.mark.parametrize("n", SIZES)
def test_inverse_chunks_keep_order_and_byte_budget(n, monkeypatch):
    batches = []
    plain = spectral.inverse

    def recording(spec, size):
        batches.append(len(spec))
        assert spec.nbytes <= max(spectral.CHUNK_BYTES, spec[0].nbytes)
        return plain(spec, size)

    rng = np.random.default_rng(n)
    values = [rng.standard_normal((n, n)) for _ in range(11)]
    monkeypatch.setattr(spectral, "inverse", recording)
    planes = list(spectral.inverse_chunks((np.fft.rfft2(v) for v in values), n))
    assert sum(batches) == len(planes) == len(values)
    plane_bytes = n * (n // 2 + 1) * 16
    assert max(batches) == min(max(spectral.CHUNK_BYTES // plane_bytes, 1), len(values))
    for plane, v in zip(planes, values):
        assert rel_err(plane, v) <= RTOL
