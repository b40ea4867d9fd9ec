"""The real-FFT spectral layer against the full-complex formulation it
replaced, which each test keeps as its reference, and against
``scipy.fft``, whose doubles it must reproduce."""
import numpy as np
import pytest
import scipy.fft

from qsqg import GridSpec, RealField, SpaceParams, caloric_minus1_norm, x_norm
from qsqg import operators as ops
from qsqg import spectral
from qsqg.norms import caloric_coverage_times

from oracles import apply_lattice_symbol, block_sups
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
    assert rel_err(apply_lattice_symbol(f, s).values, ref) <= RTOL


@pytest.mark.parametrize("n", SIZES)
def test_block_sups_match_per_level_inverse(n):
    f = white_noise(n)
    spec = np.fft.fft2(f.values)
    levels = list(ops.block_levels(f.grid))
    mag = f.grid.xi_norm
    ref = np.array([
        np.abs(np.fft.ifft2(np.where(ops._annulus_mask(mag, lv), spec, 0.0)).real).max()
        for lv in levels
    ])
    got_levels, sups = block_sups(f.values, f.grid)
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
@pytest.mark.parametrize("stack", [(), (3,)], ids=["plane", "stack3"])
def test_transforms_equal_scipy_fft(n, stack):
    values = np.random.default_rng(n).standard_normal(stack + (n, n))
    spec = spectral.forward(values)
    assert np.array_equal(spec, scipy.fft.rfft2(values))
    assert np.array_equal(spectral.inverse(spec, n), scipy.fft.irfft2(spec, s=(n, n)))


@pytest.mark.parametrize("n", SIZES)
def test_stacked_transforms_equal_per_plane_calls(n):
    values = np.random.default_rng(n + 1).standard_normal((3, n, n))
    spec = spectral.forward(values)
    planes = spectral.inverse(spec, n)
    for k in range(3):
        assert np.array_equal(spec[k], spectral.forward(values[k]))
        assert np.array_equal(planes[k], spectral.inverse(spec[k], n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("stack", [(), (3,)], ids=["plane", "stack3"])
def test_inverse_into_equals_irfft2(n, stack):
    values = np.random.default_rng(n + 2).standard_normal(stack + (n, n))
    spec = spectral.forward(values)
    want = np.fft.irfft2(spec, s=(n, n))
    out = np.empty(stack + (n, n))
    assert spectral.inverse_into(spec, out) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("n", [16, 48, 64, 256])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["plane", "stack3"])
def test_width_variants_equal_full_transforms(n, stack):
    """On the 2/3 rule's kept columns, the pruned column stages give the
    bytes of the 2-D transforms: the inverse of a spectrum that is zero
    beyond ``width``, and the forward of any planes, zero beyond ``width``."""
    width = GridSpec(n, L).dealias_cutoff + 1
    rng = np.random.default_rng(n + 3)
    spec = spectral.forward(rng.standard_normal(stack + (n, n)))
    spec[..., width:] = 0.0
    want = np.fft.irfft2(spec, s=(n, n))
    out = np.empty(stack + (n, n))
    assert spectral.inverse_into(spec, out, width) is out
    assert out.tobytes() == want.tobytes()

    values = rng.standard_normal(stack + (n, n))
    got = spectral.forward(values, width)
    assert got[..., :width].tobytes() == np.fft.rfft2(values)[..., :width].tobytes()
    assert got[..., width:].tobytes() == bytes(got[..., width:].nbytes)



@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_node_at_a_time_inverse_equals_batched_inverse(n, rows):
    """The Carleson stream writes each node's ``rows`` half spectra into one
    held spectrum buffer and inverts them into one held plane buffer; node
    by node, those planes are the bytes of one inverse of every node's
    spectra stacked, as the batched inverse made them."""
    nodes = 4
    rng = np.random.default_rng(n + 10 * rows)
    spectra = spectral.forward(rng.standard_normal((nodes, rows, n, n)))
    want = np.fft.irfft2(spectra, s=(n, n))
    specs = np.empty((rows, n, spectral.half_width(n)), dtype=complex)
    planes = np.empty((rows, n, n))
    for g in range(nodes):
        np.copyto(specs, spectra[g])
        assert spectral.inverse_into(specs, planes) is planes
        assert planes.tobytes() == want[g].tobytes()
