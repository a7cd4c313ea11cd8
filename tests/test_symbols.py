"""Symbol algebra: evaluation, rescaling, sup distance, continuity."""

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
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


NON_FINITE_SPECS = {
    "closed_form": fp.ClosedForm(2.0, 1.0),
    "tabulated": fp.tabulate(fp.ClosedForm(1.0, 1.0), 0.5, 2.0, 64),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_SPECS))
@pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
def test_eval_refuses_non_finite_frequencies(kind, xi):
    spec = NON_FINITE_SPECS[kind]
    with pytest.raises(InvalidInputError, match="finite"):
        fp.evaluate(spec, xi)
    with pytest.raises(InvalidInputError, match="finite"):
        fp.symbols.phase(spec, np.array([1.0, xi]))


# Each entry point given a non-spec where it expects a symbol.
NON_SPEC_CALLS = {
    "phase": lambda x: fp.symbols.phase(x, 1.0),
    "evaluate": lambda x: fp.evaluate(x, 1.0),
    "dilate": lambda x: fp.dilate(x, 2.0),
    "check_semistable": lambda x: fp.check_semistable(x, fp.canonical_pair(2.0)),
    "band_sup_distance": lambda x: fp.band_sup_distance(x, fp.ClosedForm(2.0, 1.0),
                                                        fp.BandSpec(2.0)),
    "continuity_modulus": lambda x: fp.continuity_modulus(x, fp.BandSpec(2.0), [1e-3]),
}


@pytest.mark.parametrize("call", sorted(NON_SPEC_CALLS))
def test_non_spec_is_refused(call):
    with pytest.raises(InvalidInputError, match="not a multiplier spec"):
        NON_SPEC_CALLS[call](object())


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


DILATIONS = [np.exp(1e-4), np.exp(-1e-4), 2.0, 1.0 / 3.0]


@pytest.mark.parametrize("lam", DILATIONS)
def test_dilate_tabulated_matches_rebuilt_profile(lam):
    tab = fp.tabulate(fp.ClosedForm(1.5, 2.0), 0.25, 6.0, 512)
    shifted = fp.dilate(tab, lam)
    rebuilt = fp.Tabulated(tab.r / lam, tab.values)
    np.testing.assert_array_equal(shifted.r, rebuilt.r)
    assert shifted._resolved == rebuilt._resolved
    lo, hi = shifted._resolved
    r = log_grid(lo, hi, 4001)
    np.testing.assert_allclose(fp.symbols.phase(shifted, r), fp.symbols.phase(rebuilt, r),
                               rtol=0, atol=1e-12)


def test_dilate_tabulated_composes():
    tab = fp.tabulate(fp.ClosedForm(0.5, -3.0), 0.1, 10.0, 256)
    twice = fp.dilate(fp.dilate(tab, 2.0), 1.0 / 3.0)
    once = fp.dilate(tab, 2.0 / 3.0)
    np.testing.assert_allclose(twice.r, once.r, rtol=1e-15)
    r = log_grid(twice.r_min * 1.001, twice.r_max * 0.999, 999)
    np.testing.assert_allclose(fp.symbols.phase(twice, r), fp.symbols.phase(once, r),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("lam", DILATIONS)
def test_dilate_tabulated_scales_resolved_stretch(lam):
    # the coarse table of test_coarse_tabulation_refuses_unresolved_radii:
    # its resolved stretch ends at node 26, well inside the table
    tab = fp.tabulate(fp.ClosedForm(2.0, 50.0), np.exp(-3.0), np.exp(3.0), 64)
    shifted = fp.dilate(tab, lam)
    assert tab._resolved[1] < tab.r_max
    assert shifted._resolved == pytest.approx((tab._resolved[0] / lam, tab._resolved[1] / lam),
                                              rel=1e-15)
    with pytest.raises(UnwrapResolutionError):
        fp.evaluate(shifted, tab._resolved[1] / lam * 1.01)


def test_dilate_tabulated_shares_the_spline(monkeypatch):
    tab = fp.tabulate(fp.ClosedForm(2.0, 1.0), 0.5, 2.0, 128)

    def no_rebuild(s, y):
        raise AssertionError("dilation rebuilt the spline")

    monkeypatch.setattr(fp.symbols, "_not_a_knot_spline", no_rebuild)
    shifted = fp.dilate(tab, 2.0)
    assert shifted.phase is tab.phase
    assert shifted.values is tab.values
    assert shifted._coef is tab._coef
    assert not shifted._coef.flags.writeable


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dilate_tabulated_refuses_radii_beyond_float_range():
    tab = fp.tabulate(fp.ClosedForm(1.0, 1.0), 1e-30, 1e30, 64)
    with pytest.raises(InvalidInputError):
        fp.dilate(tab, 1e-300)  # largest radii overflow to inf
    with pytest.raises(InvalidInputError):
        fp.dilate(tab, 1e300)  # smallest radii underflow to 0


def _log_uniform_nodes(s0, span, n, wobble):
    """Log-radii of an n-node grid on ``[s0, s0 + span]`` whose steps deviate
    from the mean by ``wobble`` relative: up in the first half, down in the
    second, so the nodes drift from the uniform grid by up to ``n/2 * wobble``
    steps."""
    ds = np.full(n - 1, span / (n - 1))
    ds[: (n - 1) // 2] *= 1.0 + wobble
    ds[(n - 1) // 2:] *= 1.0 - wobble
    return fp.Tabulated(np.exp(s0 + np.concatenate([[0.0], np.cumsum(ds)])),
                        np.ones(n, dtype=complex)).s


@seed(11)
@settings(max_examples=80, deadline=None)
@given(
    st.integers(8, 5000),
    st.floats(-5.0, 5.0),
    st.floats(0.5, 12.0),
    st.sampled_from([0.0, 0.7e-9]),
    st.sampled_from([1.0, 1.0009, 1.0 / 3.0, 7.5]),
    st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=40),
)
def test_spline_intervals_match_searchsorted(n, s0, span, wobble, lam, fractions):
    # the grid is built through Tabulated, so it passes the 1e-9 log-uniform
    # check (a wobble of 0.7e-9 puts its steps up to 0.8e-9 off the mean);
    # queries hit every node (ties), both ends, just past them and random
    # points in and around the table
    tab = fp.Tabulated(np.exp(_log_uniform_nodes(s0, span, n, wobble)),
                       np.ones(n, dtype=complex))
    s = (tab if lam == 1.0 else fp.dilate(tab, lam)).s
    span = s[-1] - s[0]
    q = np.concatenate([
        s,
        [s[0], s[-1], s[0] - 1e-12 * abs(s[0]) - 1e-300, s[-1] + 1e-12 * abs(s[-1]) + 1e-300],
        np.nextafter(s, np.inf),
        np.nextafter(s, -np.inf),
        s[0] + span * np.array(fractions),
    ])
    want = np.clip(np.searchsorted(s, q) - 1, 0, n - 2)
    np.testing.assert_array_equal(fp.symbols._spline_intervals(s, q), want)
    np.testing.assert_array_equal(fp.symbols._spline_intervals(s, q.reshape(1, -1)),
                                  want.reshape(1, -1))


def _dense_not_a_knot(s, y):
    """Second derivatives of the not-a-knot cubic spline through (s, y), from
    the full n-by-n system solved densely."""
    n = s.size
    h = np.diff(s)
    a = np.zeros((n, n))
    b = np.zeros(n)
    for i in range(1, n - 1):
        a[i, i - 1:i + 2] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
        b[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    # third derivative continuous across the second and the next-to-last node
    a[0, :3] = -h[1], h[0] + h[1], -h[0]
    a[-1, -3:] = -h[-1], h[-1] + h[-2], -h[-2]
    return np.linalg.solve(a, b)


def _thomas_not_a_knot(s, y):
    """The same second derivatives by Thomas elimination of the tridiagonal
    inner system, one row at a time in Python floats: O(n), so it reaches
    sizes a dense solve cannot."""
    n = s.size
    h = np.diff(s).tolist()
    d = (6.0 * np.diff(np.diff(y) / np.diff(s))).tolist()
    m = n - 2
    lower = h[:-1]
    diag = [2.0 * (h[i] + h[i + 1]) for i in range(m)]
    upper = h[1:]
    r0 = h[0] / h[1]
    diag[0] += h[0] * (1.0 + r0)
    upper[0] -= h[0] * r0
    r1 = h[-1] / h[-2]
    diag[-1] += h[-1] * (1.0 + r1)
    lower[-1] -= h[-1] * r1
    for i in range(1, m):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        d[i] -= w * d[i - 1]
    sig = [0.0] * n
    sig[m] = d[-1] / diag[-1]
    for i in range(m - 2, -1, -1):
        sig[i + 1] = (d[i] - upper[i] * sig[i + 2]) / diag[i]
    sig[0] = sig[1] * (1.0 + r0) - sig[2] * r0
    sig[-1] = sig[-2] * (1.0 + r1) - sig[-3] * r1
    return np.array(sig)


def _spline_test_data(n, spacing, rng):
    if spacing == "log_uniform":
        s = np.linspace(-2.0, 2.0, n)
    else:
        s = np.cumsum(rng.uniform(0.2, 1.0, n))
    return s, np.sin(3.0 * s) + rng.normal(scale=0.1, size=n)


# cyclic reduction pads the n - 2 unknowns to 2**k - 1: sizes on both sides
# of a power of two take different paddings
@pytest.mark.parametrize("n", [8, 9, 10, 11, 64, 257, 258, 512, 1025, 1026, 1027])
@pytest.mark.parametrize("spacing", ["log_uniform", "non_uniform"])
def test_not_a_knot_spline_matches_dense_solve(n, spacing):
    s, y = _spline_test_data(n, spacing, np.random.default_rng(n))
    got = fp.symbols._not_a_knot_spline(s, y)
    want = _dense_not_a_knot(s, y)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@seed(11)
@settings(max_examples=30, deadline=None)
@given(st.integers(8, 2000), st.integers(0, 2**32 - 1))
def test_not_a_knot_spline_matches_dense_solve_on_random_steps(n, rng_seed):
    s, y = _spline_test_data(n, "non_uniform", np.random.default_rng(rng_seed))
    got = fp.symbols._not_a_knot_spline(s, y)
    want = _dense_not_a_knot(s, y)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spacing", ["log_uniform", "non_uniform"])
def test_not_a_knot_spline_matches_thomas_at_large_n(spacing):
    s, y = _spline_test_data(65536, spacing, np.random.default_rng(5))
    got = fp.symbols._not_a_knot_spline(s, y)
    want = _thomas_not_a_knot(s, y)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_tabulated_large_n_matches_closed_form():
    spec = fp.ClosedForm(0.8, 1.3)
    tab = fp.tabulate(spec, np.exp(-3.0), np.exp(3.0), 65536)
    r = log_grid(np.exp(-3.0), np.exp(3.0), 20001)
    assert np.max(np.abs(fp.evaluate(tab, r) - fp.evaluate(spec, r))) <= 1e-9


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(8, 600),
    st.sampled_from([-1.5, 0.5, 0.8, 2.0]),
    st.floats(-5.0, 5.0),
    st.sampled_from([1.0, 1.0009, 1.0 / 3.0, 7.5]),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_spline_eval_is_the_horner_form(n, alpha, beta, lam, rows, rng_seed):
    # the stored-coefficient kernel gives, bit for bit, the Horner form on the
    # intervals searchsorted finds; a dilated table reads its parent's
    # coefficients on its own log-radii.  rows == 0 takes 1-d queries that
    # include every node, otherwise (rows, 65) queries
    base = fp.tabulate(fp.ClosedForm(alpha, beta), np.exp(-2.0), np.exp(2.0), n)
    tab = base if lam == 1.0 else fp.dilate(base, lam)
    s = tab.s
    rng = np.random.default_rng(rng_seed)
    if rows == 0:
        q = np.concatenate([s, s[0] + (s[-1] - s[0]) * rng.uniform(-0.1, 1.1, 200)])
    else:
        q = s[0] + (s[-1] - s[0]) * rng.uniform(-0.1, 1.1, (rows, 65))
    idx = np.clip(np.searchsorted(s, q) - 1, 0, n - 2)
    y, c1, c2, c3 = fp.symbols._cubic_coefficients(
        base.s, base.phase, fp.symbols._not_a_knot_spline(base.s, base.phase))[:, idx]
    t = q - s[idx]
    got = fp.symbols._spline_eval(tab, q)
    assert got.shape == q.shape
    assert np.array_equal(got, y + t * (c1 + t * (c2 + t * c3)))


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


def test_dilate_by_canonical_constant_doubles_beta():
    # rescaling by 2**(1/alpha) doubles the phase: m(a*r) = m(r)**2
    for alpha, beta in [(2.0, 1.0), (0.5, -3.0), (1.0, 1.0)]:
        m = fp.ClosedForm(alpha, beta)
        assert fp.dilate(m, 2.0 ** (1.0 / alpha)).beta == pytest.approx(2.0 * beta, rel=1e-12)


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


def test_sup_distance_interior_max_oracle():
    # |exp(ir) - exp(ir^2/2)| = 2|sin((r - r^2/2)/2)|: on [1/2, 2] the phase
    # difference peaks at 1/2 at r = 1, inside the band
    m1, m2 = fp.ClosedForm(1.0, 1.0), fp.ClosedForm(2.0, 0.5)
    band = fp.BandSpec(2.0)
    assert abs(fp.band_sup_distance(m1, m2, band) - 2.0 * np.sin(0.25)) <= 1e-15


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-1.5, -0.5, 0.5, 1.0, 2.0, 3.0]),
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(1.1, 8.0),
)
def test_scan_and_zoom_matches_exact_chord_sup(alpha, beta1, beta2, R):
    # the scan resolves the phase difference (beta1 - beta2)*r^alpha: it moves
    # by less than pi/2 between neighbouring samples
    coef = beta1 - beta2
    ds = 2.0 * np.log(R) / 4095
    assume(abs(coef * alpha) * R ** abs(alpha) * ds < np.pi / 2.0)
    m1, m2 = fp.ClosedForm(alpha, beta1), fp.ClosedForm(alpha, beta2)
    value = fp.symbols._scanned_sup_distance(m1, m2, fp.BandSpec(R))
    exact = fp.symbols._power_phase_chord_sup(coef, alpha, 1.0 / R, R)
    assert abs(value - exact) <= 1e-12
    assert fp.band_sup_distance(m1, m2, fp.BandSpec(R)) == exact


def test_band_sup_distance_evaluate_calls(evaluate_calls):
    # one scan and a vector zoom: a fixed handful of evaluate calls, not one
    # call per polishing step
    r = log_grid(np.exp(-3.0), np.exp(3.0), 4096)
    tab = fp.Tabulated(r, np.exp(1.3j * r**0.8))
    dilated = fp.dilate(tab, 1.001)
    evaluate_calls.clear()
    fp.band_sup_distance(dilated, tab, fp.BandSpec(2.0))
    assert 0 < len(evaluate_calls) <= 16


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
    rep = fp.continuity_modulus(spec, fp.BandSpec(2.0), [ds, 2 * ds])
    assert rep.omega[0] >= 2.0 - 1e-6
    assert not rep.luc_flag


@pytest.mark.parametrize("margin, luc", [(-1e-9, True), (1e-9, False)])
def test_continuity_modulus_flag_is_omega_at_most_one(margin, luc):
    # on the band of R = 2, a dilation by e**eps moves the phase of r**1 by at
    # most beta*2*(e**eps - 1), and 2|sin(D/2)| = 1 exactly at D = pi/3
    eps = 1e-3
    beta = (np.pi / 3.0) * (1.0 + margin) / (2.0 * np.expm1(eps))
    rep = fp.continuity_modulus(fp.ClosedForm(1.0, beta), fp.BandSpec(2.0), [eps, 2 * eps])
    assert bool(rep.omega[0] <= 1.0) is luc
    assert rep.luc_flag is luc


def test_continuity_report_holds_no_threshold():
    rep = fp.continuity_modulus(fp.ClosedForm(2.0, 1.0), fp.BandSpec(2.0), [1e-3])
    assert fp.ContinuityReport.__slots__ == ("eps", "omega", "luc_flag")
    assert repr(rep) == f"ContinuityReport(omega_min={rep.omega[0]:.3g}, luc=True)"


def test_continuity_modulus_zero_grid_is_continuous_whatever_the_slope():
    # no dilation moves anything, so the flag holds even where the phase's
    # slope at the band's ends, 40 * 1e307, is past the float range
    rep = fp.continuity_modulus(fp.ClosedForm(40.0, 1e300), fp.BandSpec(10 ** (7 / 40)), [0.0])
    assert rep.omega.tolist() == [0.0]
    assert rep.luc_flag


def test_continuity_modulus_closed_form_must_reach_the_widened_band():
    # the phase 1e306*r**2 is finite on the band of R = 10 and on its
    # widening by 0.2 (r <= 12.2), and overflows on the widening by 0.3
    spec, band = fp.ClosedForm(2.0, 1e306), fp.BandSpec(10.0)
    with pytest.raises(DomainError, match=r"^phase 1e\+306\*\|xi\|\*\*2 overflows at \|xi\| = 13\.4986$"):
        fp.continuity_modulus(spec, band, [0.3])
    rep = fp.continuity_modulus(spec, band, [0.2])
    assert rep.omega.tolist() == [2.0]
    assert not rep.luc_flag


def test_continuity_modulus_table_must_hold_the_widened_band():
    r = log_grid(np.exp(-1.0), np.exp(1.0), 512)
    spec = fp.Tabulated(r, np.exp(1.3j * r**0.8))
    band = fp.BandSpec(np.exp(0.9))
    assert fp.continuity_modulus(spec, band, [0.05]).luc_flag
    with pytest.raises(SymbolRangeError, match="outside tabulated range"):
        fp.continuity_modulus(spec, band, [0.05, 0.2])


def _continuity_oracle(spec, band, eps):
    """omega from one band_sup_distance per dilation, as its definition reads;
    for a table that is the band scan and zoom, not the exact range."""
    per_eps = [max(fp.band_sup_distance(fp.dilate(spec, float(np.exp(e))), spec, band),
                   fp.band_sup_distance(fp.dilate(spec, float(np.exp(-e))), spec, band))
               for e in eps]
    return np.maximum.accumulate(per_eps)


CONTINUITY_SPECS = {
    "tabulated": fp.Tabulated(log_grid(np.exp(-3.0), np.exp(3.0), 4096),
                              np.exp(1.3j * log_grid(np.exp(-3.0), np.exp(3.0), 4096) ** 0.8)),
}


@pytest.mark.parametrize("kind", sorted(CONTINUITY_SPECS))
def test_continuity_modulus_matches_per_dilation_sup_distances(kind):
    spec = CONTINUITY_SPECS[kind]
    band = fp.BandSpec(2.0)
    eps = [1e-4, 1e-3, 1e-2, 0.05]
    rep = fp.continuity_modulus(spec, band, eps)
    oracle = _continuity_oracle(spec, band, eps)
    assert np.max(np.abs(rep.omega - oracle)) <= 1e-14
    assert np.all(oracle > 0.0)


@pytest.mark.parametrize("eps_count", [1, 3, 8])
def test_continuity_modulus_evaluate_calls(evaluate_calls, eps_count):
    # every dilation's sup is read from the spline's coefficients, so a
    # table is never evaluated, however many epsilons
    spec = CONTINUITY_SPECS["tabulated"]
    eps = np.geomspace(1e-4, 1e-2, eps_count)
    evaluate_calls.clear()
    fp.continuity_modulus(spec, fp.BandSpec(2.0), eps)
    assert len(evaluate_calls) == 0


@pytest.mark.parametrize("eps", [[np.nan], [1e-3, np.inf], [-np.inf, 1e-3], [1e-3, -1e-3], []])
@pytest.mark.parametrize("spec", [fp.ClosedForm(0.8, 1.3), CONTINUITY_SPECS["tabulated"]],
                         ids=["closed-form", "tabulated"])
def test_continuity_modulus_refuses_a_bad_eps_grid(spec, eps):
    with pytest.raises(InvalidInputError, match="^eps grid must be finite and non-negative$"):
        fp.continuity_modulus(spec, fp.BandSpec(2.0), eps)


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
