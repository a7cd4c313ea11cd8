"""Spectral core: grids, transform pair, inner products, band projection,
probes, and the signal file format."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fracprop as fp
from fracprop.errors import (
    BandConfigError,
    GridMismatchError,
    InvalidInputError,
)
from fracprop.grids import probe_rng


def test_grid_duality_exact():
    for n, x_max in [(8, 1.0), (64, 16.0), (1024, 20.0), (4096, 320.0)]:
        g = fp.SpatialGrid(n, x_max)
        assert g.dx * g.dxi * g.n == pytest.approx(2.0 * np.pi, rel=0, abs=0)


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        fp.SpatialGrid(100, 10.0)  # not a power of two
    with pytest.raises(InvalidInputError):
        fp.SpatialGrid(4, 10.0)  # too small
    with pytest.raises(InvalidInputError):
        fp.SpatialGrid(64, -1.0)


def test_frequency_grid_symmetric_up_to_nyquist():
    g = fp.SpatialGrid(64, 8.0)
    xi = np.sort(g.xi)
    # every positive bin has a negative mirror; only the Nyquist bin is unpaired
    positives = xi[xi > 0]
    negatives = np.sort(-xi[xi < 0])
    assert positives.size == g.n // 2 - 1
    assert negatives.size == g.n // 2
    np.testing.assert_allclose(negatives[:-1], positives, rtol=0)
    assert negatives[-1] == g.xi_max  # the unpaired Nyquist bin


def test_forward_zero_signal():
    g = fp.SpatialGrid(64, 8.0)
    F = fp.forward_transform(fp.SampledSignal(g, np.zeros(64)))
    assert np.all(F.values == 0)


def test_forward_gaussian_closed_form():
    # wrap-around of exp(-x^2/2) at |x|=20 is ~1e-87, so the discrete transform
    # matches the analytic transform exp(-xi^2/2) essentially to round-off
    g = fp.SpatialGrid(1024, 20.0)
    f = fp.SampledSignal(g, np.exp(-g.x**2 / 2.0))
    F = fp.forward_transform(f)
    oracle = np.exp(-g.xi**2 / 2.0)
    assert np.max(np.abs(F.values - oracle)) <= 1e-10


def test_plancherel_seeded():
    g = fp.SpatialGrid(256, 20.0)
    band = fp.BandSpec(6.0)
    for i in range(100):
        f = fp.inverse_transform(fp.random_band_signal(band, g, seed=11, stream=i))
        nf = f.norm()
        assert abs(fp.forward_transform(f).norm() - nf) <= 1e-12 * nf


def test_roundtrip_seeded():
    g = fp.SpatialGrid(256, 20.0)
    rng = np.random.default_rng(3)
    f = fp.SampledSignal(g, rng.normal(size=256) + 1j * rng.normal(size=256))
    back = fp.inverse_transform(fp.forward_transform(f))
    assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(f.values)


def test_inverse_zero():
    g = fp.SpatialGrid(64, 8.0)
    f = fp.inverse_transform(fp.Spectrum(g, np.zeros(64)))
    assert np.all(f.values == 0)


def test_inverse_single_bin_direct_summation():
    g = fp.SpatialGrid(64, 8.0)
    k = 5
    F = np.zeros(64, dtype=complex)
    F[k] = 1.0
    f = fp.inverse_transform(fp.Spectrum(g, F))
    # independent oracle: direct summation of the inverse formula
    oracle = np.array(
        [
            sum(F[m] * np.exp(1j * g.xi[m] * x) for m in range(64))
            * g.dxi
            / np.sqrt(2 * np.pi)
            for x in g.x
        ]
    )
    assert np.max(np.abs(f.values - oracle)) <= 1e-12
    expected = np.exp(1j * g.xi[k] * g.x) * g.dxi / np.sqrt(2 * np.pi)
    assert np.max(np.abs(f.values - expected)) <= 1e-12


def test_non_finite_rejected():
    g = fp.SpatialGrid(64, 8.0)
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(InvalidInputError):
        fp.SampledSignal(g, bad)
    with pytest.raises(InvalidInputError):
        fp.Spectrum(g, np.full(64, np.inf))


def test_huge_finite_samples_pass_the_finiteness_screen():
    # the sum of |v|**2 overflows (or reads nan) for these samples, so the
    # one-pass screen cannot decide and the elementwise test must; any one
    # non-finite part among them is still refused, without a numpy warning
    g = fp.SpatialGrid(4096, 8.0)
    huge = np.full(4096, 1e200 + 1e200j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cls in (fp.SampledSignal, fp.Spectrum):
            np.testing.assert_array_equal(cls(g, huge).values, huge)
            for bad in (np.nan, np.inf, -np.inf, complex(1, np.inf)):
                vals = huge.copy()
                vals[1234] = bad
                with pytest.raises(InvalidInputError, match="non-finite"):
                    cls(g, vals)


def test_inner_product_all_ones():
    g = fp.SpatialGrid(128, 10.0)
    f = fp.SampledSignal(g, np.ones(128))
    ip = fp.inner_product(f, f)
    assert ip.imag == 0.0
    assert ip.real == pytest.approx(20.0, rel=1e-14)


@seed(7)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_inner_product_conjugate_symmetry(key):
    g = fp.SpatialGrid(64, 8.0)
    rng = np.random.default_rng(key)
    f = fp.SampledSignal(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    h = fp.SampledSignal(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    assert fp.inner_product(f, h) == pytest.approx(np.conj(fp.inner_product(h, f)), abs=1e-12)
    self_ip = fp.inner_product(f, f)
    assert self_ip.imag == 0.0 and self_ip.real >= 0.0


def test_inner_product_grid_mismatch():
    f = fp.SampledSignal(fp.SpatialGrid(64, 8.0), np.ones(64))
    h = fp.SampledSignal(fp.SpatialGrid(64, 9.0), np.ones(64))
    with pytest.raises(GridMismatchError):
        fp.inner_product(f, h)


def test_exponential_bins_orthogonal_geometric_sum():
    g = fp.SpatialGrid(64, 8.0)
    j, k = 3, 10
    ej = fp.SampledSignal(g, np.exp(1j * g.xi[j] * g.x))
    ek = fp.SampledSignal(g, np.exp(1j * g.xi[k] * g.x))
    ip = fp.inner_product(ej, ek)
    # geometric-sum oracle: sum_m exp(i*(xi_j - xi_k)*x_m) for distinct bins
    ratio = np.exp(1j * (g.xi[j] - g.xi[k]) * g.dx)
    geo = np.exp(1j * (g.xi[j] - g.xi[k]) * g.x[0]) * (1 - ratio**g.n) / (1 - ratio)
    assert abs(ip - geo * g.dx) <= 1e-12
    assert abs(ip) <= 1e-12


def test_band_project_only_dc_zeroed():
    g = fp.SpatialGrid(64, 16.0)
    band = fp.BandSpec(5.0)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    # confine energy to bins the band can hold, but keep DC occupied
    inside = (np.abs(g.xi) >= 1.0 / band.R) & (np.abs(g.xi) <= band.R)
    vals = np.where(inside | (g.xi == 0.0), vals, 0.0)
    out = fp.band_project(fp.Spectrum(g, vals), band)
    assert out.values[0] == 0.0
    np.testing.assert_array_equal(out.values[1:][inside[1:]], vals[1:][inside[1:]])


def test_band_project_idempotent_and_enumerated_bins():
    g = fp.SpatialGrid(4096, 20.0 * np.pi)  # dxi = 0.05
    assert g.dxi == pytest.approx(0.05, rel=1e-15)
    band = fp.BandSpec(2.0)
    rng = np.random.default_rng(1)
    F = fp.Spectrum(g, rng.normal(size=4096) + 1j * rng.normal(size=4096))
    once = fp.band_project(F, band)
    twice = fp.band_project(once, band)
    np.testing.assert_array_equal(once.values, twice.values)
    assert once.norm() <= F.norm()
    # survivors enumerated independently: bins with 0.5 <= |k|*dxi <= 2
    k = np.rint(g.xi / g.dxi).astype(int)
    survive = (np.abs(k) >= 10) & (np.abs(k) <= 40)
    assert np.array_equal(once.values != 0, (F.values != 0) & survive)
    assert int(np.count_nonzero(survive)) == 62


def test_band_projection_is_orthogonal_projection():
    g = fp.SpatialGrid(128, 16.0)
    band = fp.BandSpec(4.0)

    def project_signal(sig):
        return fp.inverse_transform(fp.band_project(fp.forward_transform(sig), band))

    rng = np.random.default_rng(5)
    for _ in range(10):
        f = fp.SampledSignal(g, rng.normal(size=128) + 1j * rng.normal(size=128))
        h = fp.SampledSignal(g, rng.normal(size=128) + 1j * rng.normal(size=128))
        pf, ph = project_signal(f), project_signal(h)
        assert abs(fp.inner_product(pf, h) - fp.inner_product(f, ph)) <= 1e-12 * f.norm() * h.norm()


@seed(17)
@settings(max_examples=40, deadline=None)
@given(st.integers(3, 16), st.sampled_from([1.0, 8.0, 20.0, 128.0, 20.0 * np.pi, 1e4]),
       st.integers(-60, 60), st.integers(0, 2**31 - 1))
def test_transforms_equal_the_two_pass_formulas(log2_n, x_max, exponent, key):
    # one scaling pass per transform rounds exactly as the written-out passes:
    # the sign flip is exact, and n is a power of two
    n = 2**log2_n
    g = fp.SpatialGrid(n, x_max)
    rng = np.random.default_rng(key)
    vals = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0**exponent
    k = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
    parity = np.where(k % 2 == 0, 1.0, -1.0)

    forward = np.fft.fft(vals)
    forward *= parity
    forward *= g.dx / np.sqrt(2.0 * np.pi)
    assert np.array_equal(fp.forward_transform(fp.SampledSignal(g, vals)).values, forward)

    inverse = np.fft.ifft(vals * parity)
    inverse *= g.n * g.dxi / np.sqrt(2.0 * np.pi)
    assert np.array_equal(fp.inverse_transform(fp.Spectrum(g, vals)).values, inverse)


def test_band_bins_cached_read_only_and_exact_at_the_edges():
    g = fp.SpatialGrid(64, 2.0 * np.pi)  # dxi = 0.5 exactly: |xi| = 0.5*|k|
    assert g.dxi == 0.5
    band = fp.BandSpec(2.0)  # both edges sit on bins: |k| = 1 and |k| = 4
    mask, idx, radius = g._band_bins(band.R)
    k = np.rint(g.xi / g.dxi).astype(int)
    np.testing.assert_array_equal(mask, (np.abs(k) >= 1) & (np.abs(k) <= 4))
    np.testing.assert_array_equal(idx, np.flatnonzero(mask))
    np.testing.assert_array_equal(radius, 0.5 * np.abs(k[idx]))
    for arr in (mask, idx, radius):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert g._band_bins(band.R)[0] is mask  # shared, not recomputed


def test_band_bin_cache_stays_bounded():
    g = fp.SpatialGrid(4096, 128.0)
    r = np.abs(g.xi)

    def fresh(R):
        return (r >= (1.0 / R) * (1.0 - 1e-12)) & (r <= R * (1.0 + 1e-12)) & (g.xi != 0.0)

    for R in np.linspace(1.5, 20.0, 50):
        np.testing.assert_array_equal(g._band_bins(R)[0], fresh(R))
        assert len(g._bands) <= fp.grids._BAND_CACHE_SIZE
    assert 1.5 not in g._bands  # the oldest R values were dropped
    np.testing.assert_array_equal(g._band_bins(1.5)[0], fresh(1.5))


def test_band_unresolvable():
    g = fp.SpatialGrid(64, 8.0)  # dxi ~ 0.39, xi_max ~ 12.6
    with pytest.raises(BandConfigError):
        fp.BandSpec(4.0).validate_for(g)  # inner edge 0.25 below dxi
    with pytest.raises(BandConfigError):
        fp.BandSpec(12.0).validate_for(g)  # outer edge beyond xi_max*(1-margin)
    with pytest.raises(BandConfigError):
        fp.BandSpec(0.9)  # R must exceed 1


def test_random_band_signal_contract():
    g = fp.SpatialGrid(256, 20.0)
    band = fp.BandSpec(6.0)
    a = fp.random_band_signal(band, g, seed=42)
    b = fp.random_band_signal(band, g, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    c = fp.random_band_signal(band, g, seed=43)
    assert np.any(c.values != a.values)
    assert abs(a.norm() - 1.0) <= 1e-14
    np.testing.assert_array_equal(fp.band_project(a, band).values, a.values)


def test_random_band_signal_draws_only_band_bins():
    # the first k normals of the (seed, stream) generator are the real parts
    # and the next k the imaginary parts of the k band bins, in FFT order
    g = fp.SpatialGrid(256, 20.0)
    band = fp.BandSpec(6.0)
    keep = g._band_bins(band.R)[0]
    k = int(keep.sum())
    for seed, stream in [(42, 0), (7, 3), (2**40 + 1, 10_001)]:
        F = fp.random_band_signal(band, g, seed, stream)
        rng = probe_rng(seed, stream)
        a = rng.standard_normal(k)
        b = rng.standard_normal(k)
        z = a + 1j * b
        np.testing.assert_array_equal(F.values[~keep], 0.0)
        np.testing.assert_array_equal(F.values[keep],
                                      z / (np.linalg.norm(z) * np.sqrt(g.dxi)))


def test_values_are_immutable():
    g = fp.SpatialGrid(64, 8.0)
    f = fp.SampledSignal(g, np.ones(64))
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        g.xi[0] = 1.0


def test_overflowing_transform_rejected():
    # the library's own results skip the copy, not the finiteness check; the
    # overflow is reported by that check alone, without a numpy warning
    g = fp.SpatialGrid(64, 8.0)
    f = fp.SampledSignal(g, np.full(64, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            fp.forward_transform(f)


@pytest.mark.parametrize("cls, step", [(fp.SampledSignal, "dx"), (fp.Spectrum, "dxi")])
def test_norm_of_huge_finite_samples(cls, step):
    # sum |v|^2 overflows, the norm does not: it is taken scaled, without a
    # warning, while ordinary norms keep the plain formula's bits
    g = fp.SpatialGrid(64, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = cls(g, np.full(64, 3e200 - 4e200j)).norm()
    assert huge == pytest.approx(5e200 * np.sqrt(64 * getattr(g, step)), rel=1e-14)
    vals = np.random.default_rng(3).normal(size=64) + 1j
    assert cls(g, vals).norm() == float(np.linalg.norm(vals)) * np.sqrt(getattr(g, step))


def test_constructors_copy_caller_arrays():
    g = fp.SpatialGrid(64, 8.0)
    for cls in (fp.SampledSignal, fp.Spectrum):
        data = np.ones(64, dtype=complex)
        wrapped = cls(g, data)
        data[0] = 5.0
        assert wrapped.values[0] == 1.0
        assert data.flags.writeable


def test_constructors_share_only_frozen_owned_arrays():
    # an owned read-only array cannot change, so it is wrapped as it is; a
    # read-only view of a writable array can, so it is copied
    g = fp.SpatialGrid(64, 8.0)
    F = fp.forward_transform(fp.gaussian_packet(g, spectral_width=1.0))
    assert fp.Spectrum(g, F.values).values is F.values
    base = np.ones(64, dtype=complex)
    view = base[:]
    view.setflags(write=False)
    wrapped = fp.SampledSignal(g, view)
    base[0] = 5.0
    assert wrapped.values[0] == 1.0


def test_constructors_copy_converted_samples_once():
    # converting real samples already makes an array nothing else holds, so
    # the wrapper keeps it: about one complex array at the peak, not two
    g = fp.SpatialGrid(65536, 128.0)
    complex_bytes = 16 * g.n
    for data in (np.ones(g.n), [1.0] * g.n):
        tracemalloc.start()
        try:
            f = fp.SampledSignal(g, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * complex_bytes, peak
        assert not f.values.flags.writeable
        np.testing.assert_array_equal(f.values, np.ones(g.n))


def test_transform_results_are_read_only():
    g = fp.SpatialGrid(64, 8.0)
    f = fp.gaussian_packet(g, spectral_width=1.0)
    F = fp.forward_transform(f)
    for result in (F, fp.inverse_transform(F)):
        with pytest.raises(ValueError):
            result.values[0] = 2.0


def test_signal_csv_roundtrip(tmp_path):
    g = fp.SpatialGrid(64, 8.0)
    f = fp.gaussian_packet(g, spectral_width=0.8, carrier=1.5)
    path = tmp_path / "sig.csv"
    fp.save_signal_csv(path, f)
    back = fp.load_signal_csv(path)
    assert back.grid == g
    np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-16)


def test_signal_csv_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re\n0,1\n")
    with pytest.raises(InvalidInputError):
        fp.load_signal_csv(path)
    # non-uniform spacing
    rows = ["x,re,im"] + [f"{x},1,0" for x in [0.0, 1.0, 2.0, 3.1, 4.0, 5.0, 6.0, 7.0]]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InvalidInputError):
        fp.load_signal_csv(path)
