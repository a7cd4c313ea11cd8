"""Symbol algebra: evaluation, rescaling, products, sup distance, continuity."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fracprop as fp
from fracprop.errors import (
    DomainError,
    InvalidInputError,
    SymbolRangeError,
    UnwrapResolutionError,
)

E = np.e


def log_grid(lo, hi, num):
    return np.exp(np.linspace(np.log(lo), np.log(hi), num))


def test_eval_closed_form_basics():
    spec = fp.ClosedForm(2.0, np.pi)
    assert fp.evaluate(spec, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert fp.evaluate(spec, -1.0) == pytest.approx(-1.0, abs=1e-15)
    assert fp.evaluate(spec, -1.0) == fp.evaluate(spec, 1.0)


def test_eval_negative_exponent_at_zero():
    with pytest.raises(DomainError):
        fp.evaluate(fp.ClosedForm(-1.0, 3.0), 0.0)
    # nonnegative exponents are fine at 0
    assert fp.evaluate(fp.ClosedForm(2.0, 5.0), 0.0) == pytest.approx(1.0)
    assert fp.evaluate(fp.ClosedForm(0.0, 1.0), 0.0) == pytest.approx(np.exp(1j))


def test_eval_tabulated_against_closed_form_oracle():
    tab = fp.tabulate(fp.ClosedForm(1.0, 3.0), np.exp(-6.0), np.exp(6.0), 4096)
    assert abs(fp.evaluate(tab, 2.5) - np.exp(7.5j)) <= 1e-9
    assert fp.evaluate(tab, -2.5) == fp.evaluate(tab, 2.5)


def test_eval_tabulated_out_of_range():
    tab = fp.tabulate(fp.ClosedForm(1.0, 1.0), 0.5, 2.0, 64)
    with pytest.raises(SymbolRangeError):
        fp.evaluate(tab, 3.0)


def test_tabulated_fidelity_sweep():
    # sampling at 4096 points then evaluating between nodes stays within 1e-9
    r_eval = log_grid(np.exp(-2.0) * 1.001, np.exp(2.0) * 0.999, 7919)
    for alpha, beta in [(2.0, 1.0), (0.5, -3.0), (-1.0, 2.0), (1.0, 3.0)]:
        spec = fp.ClosedForm(alpha, beta)
        tab = fp.tabulate(spec, np.exp(-2.0), np.exp(2.0), 4096)
        err = np.max(np.abs(fp.evaluate(tab, r_eval) - fp.evaluate(spec, r_eval)))
        assert err <= 1e-9, (alpha, beta, err)


def test_unimodularity_everywhere():
    specs = [
        fp.ClosedForm(2.0, 7.0),
        fp.tabulate(fp.ClosedForm(0.5, 2.0), 0.01, 100.0, 512),
        fp.combine([(fp.ClosedForm(2.0, 1.0), 1), (fp.ClosedForm(1.0, -0.5), 3)]),
    ]
    r = log_grid(0.02, 50.0, 999)
    for spec in specs:
        np.testing.assert_allclose(np.abs(fp.evaluate(spec, r)), 1.0, rtol=0, atol=1e-12)


def test_dilate_closed_form():
    spec = fp.ClosedForm(2.0, 1.0)
    assert fp.dilate(spec, 1.0) == spec
    assert fp.dilate(spec, 2.0) == fp.ClosedForm(2.0, 4.0)
    assert fp.dilate(fp.ClosedForm(-1.0, 3.0), 3.0) == fp.ClosedForm(-1.0, 1.0)
    with pytest.raises(DomainError):
        fp.dilate(spec, 0.0)
    with pytest.raises(DomainError):
        fp.dilate(spec, -2.0)


def test_dilate_tabulated_shifts_range():
    tab = fp.tabulate(fp.ClosedForm(1.0, 1.0), 0.5, 8.0, 256)
    shifted = fp.dilate(tab, 2.0)
    assert shifted.r_min == pytest.approx(0.25)
    assert shifted.r_max == pytest.approx(4.0)
    r = log_grid(0.3, 3.9, 777)
    np.testing.assert_allclose(
        fp.evaluate(shifted, r), fp.evaluate(tab, 2.0 * r), rtol=0, atol=1e-12
    )


@seed(11)
@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.2, 5.0),
    st.floats(0.2, 5.0),
    st.sampled_from([-3.0, -1.5, -0.5, 0.5, 1.0, 2.0, 3.0]),
    st.floats(-10.0, 10.0),
)
def test_dilation_semigroup(lam1, lam2, alpha, beta):
    spec = fp.ClosedForm(alpha, beta)
    once = fp.dilate(fp.dilate(spec, lam1), lam2)
    joint = fp.dilate(spec, lam1 * lam2)
    assert once.alpha == joint.alpha
    assert once.beta == pytest.approx(joint.beta, rel=1e-14, abs=1e-300)


def test_combine_cancellation_and_powers():
    m = fp.ClosedForm(2.0, 1.0)
    const = fp.combine([(m, 2), (m, -2)])
    r = log_grid(0.05, 20.0, 513)
    np.testing.assert_allclose(fp.evaluate(const, r), 1.0, rtol=0, atol=1e-15)
    squared = fp.combine([(m, 2)])
    assert squared == fp.ClosedForm(2.0, 2.0)


def test_combine_canonical_rescale_cancels():
    # rescaling by 2**(1/alpha) doubles the phase, so m(a.)*m^-2 is constant 1
    r = log_grid(np.exp(-3.0), np.exp(3.0), 4096)
    for alpha, beta in [(2.0, 1.0), (0.5, -3.0), (1.0, 1.0)]:
        m = fp.ClosedForm(alpha, beta)
        a = 2.0 ** (1.0 / alpha)
        prod = fp.combine([(fp.dilate(m, a), 1), (m, -2)])
        assert np.max(np.abs(fp.evaluate(prod, r) - 1.0)) <= 1e-12


def test_combine_rejects_non_integer_powers_and_disjoint_ranges():
    m = fp.ClosedForm(2.0, 1.0)
    with pytest.raises(InvalidInputError):
        fp.combine([(m, 1.5)])
    t1 = fp.tabulate(m, 0.1, 0.5, 64)
    t2 = fp.tabulate(m, 2.0, 9.0, 64)
    with pytest.raises(SymbolRangeError):
        fp.combine([(t1, 1), (t2, 1)])


def test_band_sup_distance_zero_and_constants():
    band = fp.BandSpec(2.0)
    m = fp.ClosedForm(2.0, 1.0)
    assert fp.band_sup_distance(m, m, band) == 0.0
    beta0 = 1.2
    d = fp.band_sup_distance(fp.ClosedForm(0.0, beta0), fp.ClosedForm(0.0, 0.0), band)
    assert d == pytest.approx(abs(np.exp(1j * beta0) - 1.0), abs=1e-14)


def test_band_sup_distance_dense_grid_oracle():
    # |exp(3i r^2) - 1| over r in [1/2, 2]: the phase sweeps [0.75, 12],
    # crosses pi, so the sup is exactly 2; dense-grid oracle at 1e6 points
    band = fp.BandSpec(2.0)
    r = log_grid(0.5, 2.0, 1_000_000)
    oracle = np.max(np.abs(np.exp(3j * r**2) - 1.0))
    assert oracle >= 2.0 - 1e-9
    d = fp.band_sup_distance(fp.ClosedForm(2.0, 4.0), fp.ClosedForm(2.0, 1.0), band)
    assert abs(d - 2.0) <= 1e-12
    assert d >= oracle - 1e-12


def test_band_sup_distance_is_metric_on_band():
    band = fp.BandSpec(3.0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        specs = [
            fp.ClosedForm(rng.choice([-1.0, 0.5, 1.0, 2.0]), rng.uniform(-3, 3))
            for _ in range(3)
        ]
        d01 = fp.band_sup_distance(specs[0], specs[1], band)
        d10 = fp.band_sup_distance(specs[1], specs[0], band)
        d02 = fp.band_sup_distance(specs[0], specs[2], band)
        d21 = fp.band_sup_distance(specs[2], specs[1], band)
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d01 <= d02 + d21 + 1e-12


def test_band_sup_distance_needs_enough_samples():
    band = fp.BandSpec(2.0)
    with pytest.raises(InvalidInputError):
        fp.band_sup_distance(fp.ClosedForm(2, 1), fp.ClosedForm(2, 2), band, samples=100)


def test_continuity_modulus_closed_form():
    band = fp.BandSpec(2.0)
    spec = fp.ClosedForm(2.0, 1.0)
    eps = [0.0, 1e-4, 1e-3, 1e-2]
    rep = fp.continuity_modulus(spec, band, eps)
    assert rep.omega[0] == 0.0  # scale factor 1 changes nothing
    assert np.all(np.diff(rep.omega) >= 0)
    assert rep.omega[-1] < 0.5
    assert rep.luc_flag


def test_continuity_modulus_detects_sign_flip():
    n = 512
    r = log_grid(np.exp(-1.0), np.exp(1.0), n)
    values = np.ones(n, dtype=complex)
    values[n // 2] = -1.0  # one-sample jump by a factor -1
    spec = fp.Tabulated(r, values)
    ds = np.log(r[1]) - np.log(r[0])
    rep = fp.continuity_modulus(spec, fp.BandSpec(2.0), [ds, 2 * ds], samples=4096)
    assert rep.omega[0] >= 2.0 - 1e-6
    assert not rep.luc_flag


def test_symbol_csv_roundtrip_and_validation(tmp_path):
    tab = fp.tabulate(fp.ClosedForm(0.5, 1.5), 0.1, 10.0, 128)
    path = tmp_path / "sym.csv"
    fp.save_symbol_csv(path, tab)
    back = fp.load_symbol_csv(path)
    np.testing.assert_allclose(back.r, tab.r, rtol=1e-15)
    np.testing.assert_allclose(back.values, tab.values, rtol=0, atol=1e-12)

    bad = tmp_path / "bad.csv"
    bad.write_text("r,re,im\n" + "\n".join(f"{r},2,0" for r in tab.r[:16]) + "\n")
    with pytest.raises(InvalidInputError):
        fp.load_symbol_csv(bad)  # off the unit circle

    bad.write_text("r,re,im\n" + "\n".join(f"{r},1,0" for r in [1, 2, 3, 4, 5, 6, 7, 8]))
    with pytest.raises(InvalidInputError):
        fp.load_symbol_csv(bad)  # linear grid, not log-uniform


def test_tabulated_constructor_validation():
    r = log_grid(0.1, 10.0, 64)
    with pytest.raises(InvalidInputError):
        fp.Tabulated(r, np.full(64, 1.1 + 0j))  # modulus off by 0.1
    with pytest.raises(InvalidInputError):
        fp.Tabulated(-r[::-1], np.ones(64, dtype=complex))  # negative radii


def test_coarse_tabulation_refuses_unresolved_radii():
    # 64 nodes of exp(50i*r^2) on [e^-3, e^3]: the phase step passes pi near
    # r = 0.6, and beyond it the spline of the lifted phase errs by up to 2
    tab = fp.tabulate(fp.ClosedForm(2.0, 50.0), np.exp(-3.0), np.exp(3.0), 64)
    resolved = log_grid(np.exp(-3.0), 0.4, 257)
    err = np.max(np.abs(fp.evaluate(tab, resolved) - np.exp(50j * resolved**2)))
    assert err <= 0.05
    with pytest.raises(UnwrapResolutionError):
        fp.evaluate(tab, 1.0)
    with pytest.raises(UnwrapResolutionError):
        fp.band_sup_distance(tab, fp.ClosedForm(2.0, 50.0), fp.BandSpec(2.0))
    with pytest.raises(UnwrapResolutionError):
        fp.identify(tab, fp.SemistablePair(np.sqrt(2.0), np.sqrt(3.0)))
    # the same profile sampled finely enough is resolved everywhere
    fine = fp.tabulate(fp.ClosedForm(2.0, 50.0), np.exp(-3.0), np.exp(3.0), 200_000)
    assert fp.evaluate(fine, np.exp(3.0)) == pytest.approx(np.exp(50j * np.exp(6.0)), abs=1e-6)
