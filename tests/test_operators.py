"""Signal-level operators: evolution, translation, rescaling, conjugation,
and operator-distance probing.

Identities that cross the frequency-side resampling of dilate_signal use
Gaussian packets (see conftest.band_packet): their spatial tails vanish inside
the window, which is what keeps the resampling error under the 1e-8 budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fracprop as fp
from fracprop.errors import DomainError, SymbolRangeError
from fracprop.operators import _chirp_spectrum
from conftest import band_packet, evolved_packet_oracle, relative_l2


def test_apply_identity_when_coefficient_zero(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    out = fp.apply(fp.ClosedForm(2.0, 0.0), f, wide_band)
    projected = fp.inverse_transform(fp.band_project(fp.forward_transform(f), wide_band))
    assert relative_l2(packet_grid, out.values, projected.values, f.norm()) <= 1e-13


def test_apply_matches_evolved_gaussian_oracle():
    grid = fp.SpatialGrid(2048, 40.0)
    band = fp.BandSpec(8.0)
    width, carrier = 0.25, 2.0
    packet = fp.gaussian_packet(grid, spectral_width=width, carrier=carrier)
    evolved = fp.apply(fp.ClosedForm(2.0, 1.0), packet, band)
    oracle = evolved_packet_oracle(grid.x, 0.0, width, carrier, 1.0)
    assert np.max(np.abs(evolved.values - oracle)) <= 1e-8


def test_apply_unitary_on_band(packet_grid, wide_band):
    spec = fp.ClosedForm(1.0, -2.0)
    for i in range(50):
        F = fp.random_band_signal(wide_band, packet_grid, seed=21, stream=i)
        f = fp.inverse_transform(F)
        out = fp.apply(spec, f, wide_band)
        ref = fp.inverse_transform(fp.band_project(fp.forward_transform(f), wide_band))
        assert abs(out.norm() - ref.norm()) <= 1e-12 * ref.norm()


def test_translate_zero_and_group(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    same = fp.translate(f, 0.0)
    assert relative_l2(packet_grid, same.values, f.values, f.norm()) <= 1e-13
    back = fp.translate(fp.translate(f, 2.3), -2.3)
    assert relative_l2(packet_grid, back.values, f.values, f.norm()) <= 1e-12
    assert abs(fp.translate(f, 2.3).norm() - f.norm()) <= 1e-12 * f.norm()


def test_translate_gaussian_shift_oracle():
    grid = fp.SpatialGrid(1024, 20.0)
    f = fp.SampledSignal(grid, np.exp(-grid.x**2 / 2.0))
    shifted = fp.translate(f, 1.0)
    oracle = np.exp(-((grid.x - 1.0) ** 2) / 2.0)
    assert np.max(np.abs(shifted.values - oracle)) <= 1e-10


def test_translation_invariance_of_multipliers(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    spec = fp.ClosedForm(0.5, 3.0)
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.uniform(-5.0, 5.0)
        lhs = fp.translate(fp.apply(spec, f, wide_band), a)
        rhs = fp.apply(spec, fp.translate(f, a), wide_band)
        assert relative_l2(packet_grid, lhs.values, rhs.values, f.norm()) <= 1e-11


def test_dilate_signal_identity_and_norm(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    same = fp.dilate_signal(f, 1.0)
    assert relative_l2(packet_grid, same.values, f.values, f.norm()) <= 1e-11
    half = fp.dilate_signal(f, 2.0)
    assert abs(half.norm() - f.norm() / np.sqrt(2.0)) <= 1e-8 * f.norm()


def test_dilate_signal_reflection(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band, carrier=3.0, center=5.0)
    rev = fp.dilate_signal(f, -1.0)
    idx = np.arange(packet_grid.n)
    periodic_reflection = f.values[(-idx) % packet_grid.n]
    assert np.max(np.abs(rev.values - periodic_reflection)) <= 1e-10


def test_symmetric_operators_commute_with_reflection(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band, center=-4.0)
    spec = fp.ClosedForm(2.0, 1.3)
    lhs = fp.dilate_signal(fp.apply(spec, f, wide_band), -1.0)
    rhs = fp.apply(spec, fp.dilate_signal(f, -1.0), wide_band)
    assert relative_l2(packet_grid, lhs.values, rhs.values, f.norm()) <= 1e-8


def test_dilate_signal_range_errors(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    with pytest.raises(DomainError):
        fp.dilate_signal(f, 0.0)
    # pushing the support below the frequency resolution names the inequality
    with pytest.raises(SymbolRangeError) as err:
        fp.dilate_signal(f, 64.0)
    assert "dxi" in str(err.value)
    with pytest.raises(SymbolRangeError) as err:
        fp.dilate_signal(f, 1.0 / 64.0)
    assert "xi_max" in str(err.value)


def test_conjugated_apply_matches_symbol_path(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    spec = fp.ClosedForm(2.0, 1.0)
    lam1 = fp.conjugated_apply(spec, 1.0, f, wide_band)
    direct = fp.apply(spec, f, wide_band)
    assert relative_l2(packet_grid, lam1.values, direct.values, f.norm()) <= 1e-11

    conj = fp.conjugated_apply(spec, 2.0, f, wide_band)
    symbol_path = fp.apply(fp.dilate(spec, 2.0), f, wide_band)  # (2,1) -> (2,4)
    assert relative_l2(packet_grid, conj.values, symbol_path.values, f.norm()) <= 1e-8


def test_conjugated_apply_random_specs(packet_grid, wide_band):
    rng = np.random.default_rng(23)
    for i in range(4):
        spec = fp.ClosedForm(rng.choice([0.5, 1.0, 2.0]), rng.uniform(-2, 2))
        lam = rng.uniform(0.5, 2.5)
        f = band_packet(packet_grid, wide_band, carrier=rng.uniform(2.0, 4.0))
        lhs = fp.conjugated_apply(spec, lam, f, wide_band)
        rhs = fp.apply(fp.dilate(spec, lam), f, wide_band)
        assert relative_l2(packet_grid, lhs.values, rhs.values, f.norm()) <= 1e-8


def test_probe_distance_equal_and_constant_symbols():
    grid = fp.SpatialGrid(1024, 64.0)
    band = fp.BandSpec(2.0)
    m = fp.ClosedForm(2.0, 1.0)
    assert fp.probe_operator_distance(m, m, band, grid) <= 1e-13
    beta0 = 0.8
    d = fp.probe_operator_distance(fp.ClosedForm(0.0, beta0), fp.ClosedForm(0.0, 0.0), band, grid)
    assert d == pytest.approx(abs(np.exp(1j * beta0) - 1.0), abs=1e-12)


def test_probe_distance_brackets_sup():
    grid = fp.SpatialGrid(4096, 320.0)
    band = fp.BandSpec(2.0)
    m1, m2 = fp.ClosedForm(2.0, 4.0), fp.ClosedForm(2.0, 1.0)
    sup = fp.band_sup_distance(m1, m2, band)
    est = fp.probe_operator_distance(m1, m2, band, grid)
    assert est <= sup + 1e-12
    assert est >= sup - 1e-3


def probe_pairs(rng):
    """A grid, a band, and symbol pairs on them: closed forms of different
    exponents, and tabulated profiles against closed forms."""
    grid, band = fp.SpatialGrid(1024, 64.0), fp.BandSpec(3.0)
    alphas = [-1.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    pairs = []
    for _ in range(6):
        a1, a2 = rng.choice(alphas, size=2, replace=False)
        pairs.append((fp.ClosedForm(a1, rng.uniform(-3, 3)), fp.ClosedForm(a2, rng.uniform(-3, 3))))
    for _ in range(3):
        tab = fp.tabulate(fp.ClosedForm(rng.choice(alphas), rng.uniform(-3, 3)), 0.2, 5.0, 4096)
        pairs.append((tab, fp.ClosedForm(rng.choice(alphas), rng.uniform(-3, 3))))
    return grid, band, pairs


def test_probe_equals_the_largest_band_bin_mismatch():
    # each band bin is an eigenvector of both multipliers, so the probe reads
    # exactly the worst bin: the band bins enumerated here from |xi| directly
    grid, band, pairs = probe_pairs(np.random.default_rng(41))
    radius = np.abs(grid.xi)
    inside = (radius >= 1.0 / band.R) & (radius <= band.R)
    for m1, m2 in pairs:
        worst = np.max(np.abs(fp.evaluate(m1, radius[inside]) - fp.evaluate(m2, radius[inside])))
        est = fp.probe_operator_distance(m1, m2, band, grid)
        assert abs(est - worst) <= 2e-14, (m1, m2, est - worst)


@pytest.mark.parametrize("pair", [1, 8])
def test_probe_evaluates_each_symbol_once(evaluate_calls, pair):
    # the worst-bin search and the spike share the two symbols' values on the
    # band, for two closed forms (pair 1) and a tabulated profile (pair 8)
    grid, band, pairs = probe_pairs(np.random.default_rng(47))
    m1, m2 = pairs[pair]
    evaluate_calls.clear()
    fp.probe_operator_distance(m1, m2, band, grid)
    assert len(evaluate_calls) == 2


def test_probe_is_never_below_a_gaussian_bump_probe():
    # a unit Gaussian bump 0.75*dxi wide averages the mismatch over about
    # three bins, so on every centre it reads no more than the probe
    grid, band, pairs = probe_pairs(np.random.default_rng(43))
    inside = (np.abs(grid.xi) >= 1.0 / band.R) & (np.abs(grid.xi) <= band.R)
    sigma = 0.75 * grid.dxi
    for m1, m2 in pairs:
        est = fp.probe_operator_distance(m1, m2, band, grid)
        v1, v2 = (fp.operators._on_band(m, grid, band) for m in (m1, m2))
        r = np.exp(np.linspace(-np.log(band.R), np.log(band.R), 4096))
        d = np.abs(fp.evaluate(m1, r) - fp.evaluate(m2, r))
        centres = np.append(np.linspace(1.0 / band.R, band.R, 7), r[np.argmax(d)])
        for centre in np.concatenate([centres, -centres]):
            bump = np.where(inside, np.exp(-0.5 * ((grid.xi - centre) / sigma) ** 2), 0.0)
            bump /= np.linalg.norm(bump) * np.sqrt(grid.dxi)
            read = fp.operators._probe_ratio(v1, v2, fp.Spectrum(grid, bump), band)
            assert est >= read, (m1, m2, centre, read - est)


@seed(5)
@settings(max_examples=25, deadline=None)
@given(
    alpha=st.sampled_from([-1.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    beta=st.floats(-5.0, 5.0),
    probe_seed=st.integers(0, 2**31 - 1),
)
def test_apply_spectrum_matches_apply(alpha, beta, probe_seed):
    grid, band = fp.SpatialGrid(512, 32.0), fp.BandSpec(4.0)
    spec = fp.ClosedForm(alpha, beta)
    f = fp.inverse_transform(fp.random_band_signal(band, grid, probe_seed))
    mvals = fp.operators._on_band(spec, grid, band)
    shared = fp.operators._apply_spectrum(mvals, fp.forward_transform(f), band)
    np.testing.assert_array_equal(shared.values, fp.apply(spec, f, band).values)


def test_verify_shares_forward_transforms(monkeypatch):
    # one forward transform per probe, shared by Plancherel, the round trip,
    # apply and the reference, the unitarity reference taken as the
    # band-projected spectrum's norm, not its inverse transform's, and both
    # sides of the group law compared on the band bins, so only T(t2) f is
    # carried back to a signal: a full (2, 1) run makes 216 forward and 365
    # inverse calls
    calls = {"fft": 0, "ifft": 0}

    def counted(name):
        inner = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    fp.run_verification(2.0, 1.0, seed=7)
    assert calls["fft"] <= 216
    assert calls["ifft"] <= 365


def test_probe_never_exceeds_sup_random_pairs():
    grid = fp.SpatialGrid(1024, 64.0)
    band = fp.BandSpec(3.0)
    rng = np.random.default_rng(31)
    for _ in range(3):
        m1 = fp.ClosedForm(rng.choice([0.5, 1.0, 2.0]), rng.uniform(-3, 3))
        m2 = fp.ClosedForm(rng.choice([0.5, 1.0, 2.0]), rng.uniform(-3, 3))
        sup = fp.band_sup_distance(m1, m2, band)
        est = fp.probe_operator_distance(m1, m2, band, grid)
        assert est <= sup + 1e-12


def test_apply_propagates_symbol_range_error(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    narrow = fp.tabulate(fp.ClosedForm(1.0, 1.0), 0.5, 2.0, 64)  # band needs [1/8, 8]
    with pytest.raises(SymbolRangeError):
        fp.apply(narrow, f, wide_band)


# ------------------------------------------------ chirp-z spectrum resampling

def dense_spectrum(values, grid, xi):
    """The direct sum (dx/sqrt(2*pi)) * sum_j f_j exp(-i*xi*x_j), one row per
    frequency."""
    return (np.exp(-1j * np.outer(xi, grid.x)) @ values) * grid.dx / np.sqrt(2.0 * np.pi)


def resampling_error(got, ref, values, grid):
    # relative to sqrt(m) * dx/sqrt(2*pi) * ||f||, the norm that m spectrum
    # values of f have on average, so a single bin where the sum happens to
    # cancel does not inflate the measure
    scale = np.sqrt(ref.size) * grid.dx / np.sqrt(2.0 * np.pi) * np.linalg.norm(values)
    return float(np.linalg.norm(got - ref) / scale)


def check_run(n, lam, k0, m, data_seed):
    grid = fp.SpatialGrid(n, n / 16.0)
    rng = np.random.default_rng(data_seed)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = _chirp_spectrum(values, grid, lam, k0, m)
    ref = dense_spectrum(values, grid, lam * grid.dxi * (k0 + np.arange(m)))
    assert resampling_error(got, ref, values, grid) <= 1e-12, (n, lam, k0, m)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("lam", [1.0, -1.0, 1.0 / 16.0, -1.0 / 16.0, 16.0, -16.0,
                                 np.sqrt(2.0), -2.7])
def test_chirp_spectrum_matches_dense_sum(n, lam):
    # frequencies stay inside the Nyquist band, as every dilate_signal request does
    top = min(n // 2 - 1, int((n // 2 - 1) / abs(lam)))
    check_run(n, lam, 0, top + 1, 1)           # whole k >= 0 run
    check_run(n, lam, -top, top, 2)            # whole k < 0 run
    check_run(n, lam, top // 3, max(1, top // 2), 3)   # interior runs of either sign
    check_run(n, lam, -top // 2 - 1, max(1, top // 3), 4)
    check_run(n, lam, top, 1, 5)               # runs of length 1
    check_run(n, lam, -top, 1, 6)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    log_n=st.integers(6, 9),
    log_lam=st.floats(-4.0, 4.0),
    negative=st.booleans(),
    start=st.floats(0.0, 1.0),
    length=st.floats(0.0, 1.0),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_chirp_spectrum_property(log_n, log_lam, negative, start, length, data_seed):
    n = 2**log_n
    lam = (-1.0 if negative else 1.0) * 2.0**log_lam
    top = max(1, int((n // 2 - 1) / abs(lam)))  # bins k with |lam*k| < n/2
    lo = min(top, -top + int(start * (2 * top + 1)))
    room = top - lo + 1 if lo >= 0 else -lo     # a run keeps the sign of lo
    m = 1 + int(length * (room - 1))
    check_run(n, lam, lo, m, data_seed)


@pytest.mark.parametrize("lam", [1, -1, 2, -3])
def test_chirp_spectrum_integer_factor_hits_fft_bins(lam):
    # lam*k is a grid bin, so the resampled values are FFT outputs; the whole
    # turns of lam leave no rounding in the chirp phases, which keeps the
    # agreement at round-off even on a long grid
    n = 4096
    grid = fp.SpatialGrid(n, 128.0)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    F = fp.forward_transform(fp.SampledSignal(grid, values)).values
    top = (n // 2 - 1) // abs(lam)
    for k0, m in ((0, top + 1), (-top, top)):
        got = _chirp_spectrum(values, grid, float(lam), k0, m)
        ref = F[(lam * (k0 + np.arange(m))) % n]
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("lam", [np.sqrt(2.0), -1.0 / np.sqrt(3.0), 2.0])
def test_dilate_signal_matches_dense_resampling(lam):
    # both sign runs of kept bins go through the resampler
    grid = fp.SpatialGrid(1024, 64.0)
    f = band_packet(grid, fp.BandSpec(4.0), width=0.25, carrier=1.5)
    out = fp.dilate_signal(f, lam)
    F = fp.forward_transform(f).values
    occupied = np.abs(F) > 1e-13 * np.abs(F).max()
    radii = np.abs(grid.xi[occupied])
    keep = ((np.abs(grid.xi) >= radii.min() / abs(lam) / (1.0 + 1e-12))
            & (np.abs(grid.xi) <= radii.max() / abs(lam) * (1.0 + 1e-12)))
    assert np.any(keep & (grid.xi > 0)) and np.any(keep & (grid.xi < 0))
    spectrum = np.zeros(grid.n, dtype=complex)
    spectrum[keep] = dense_spectrum(f.values, grid, lam * grid.xi[keep])
    ref = fp.inverse_transform(fp.Spectrum(grid, spectrum))
    assert relative_l2(grid, out.values, ref.values, ref.norm()) <= 1e-12


def test_dilate_signal_memory_stays_linear():
    # a dense 512-row phase block alone would take 134 MB at this size
    grid = fp.SpatialGrid(16384, 512.0)
    f = band_packet(grid, fp.BandSpec(8.0))
    tracemalloc.start()
    try:
        fp.dilate_signal(f, np.sqrt(2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
