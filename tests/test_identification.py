"""Parameter recovery: phase lifting, branch integers, increment fit, pipeline."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fracprop as fp
from fracprop.errors import (
    BranchInconsistencyError,
    DegenerateSymbolError,
    InconsistentPairError,
    InsufficientDataError,
    InvalidInputError,
    ModelMismatchError,
    UnwrapResolutionError,
)
from fracprop.identification import TWO_PI
from fracprop.symbols import _wrapped_steps
from conftest import identify_halfwidth


def log_s(lo, hi, num):
    return np.linspace(lo, hi, num)


# ---------------------------------------------------------------------- unwrap

def table(s, values):
    return fp.Tabulated(np.exp(s), values)


def pin_of(tab, phi):
    """The whole turns that move the table's own lift onto ``phi``."""
    return phi[0] - tab.phase[0]


def test_unwrap_slowly_varying():
    s = np.arange(101, dtype=float)
    true = 0.1 * s
    phi = fp.unwrap_phase(table(s, np.exp(1j * true)), 0)
    np.testing.assert_allclose(phi, true, atol=1e-12)


def test_unwrap_constant_one():
    s = np.arange(32, dtype=float)
    phi = fp.unwrap_phase(table(s, np.ones(32, dtype=complex)), 0)
    np.testing.assert_array_equal(phi, np.zeros(32))


def test_unwrap_symbolic_oracle():
    # e^{i*7r} on r in [1, e]: continuous phase is 7*e^s, pinned at s=0 to the
    # principal branch 7 - 2*pi
    s = log_s(0.0, 1.0, 2048)
    values = np.exp(1j * 7.0 * np.exp(s))
    phi = fp.unwrap_phase(table(s, values), 0)
    expected = 7.0 * np.exp(s) - TWO_PI
    assert phi[0] == pytest.approx(7.0 - TWO_PI, abs=1e-14)
    np.testing.assert_allclose(phi, expected, atol=1e-11)


def test_unwrap_reports_offending_index():
    s = np.arange(8, dtype=float)
    phases = np.array([0.0, 0.1, 0.2, 0.2 + np.pi, 0.4, 0.5, 0.6, 0.7])
    with pytest.raises(UnwrapResolutionError) as err:
        fp.unwrap_phase(table(s, np.exp(1j * phases)), 0)
    assert "samples 2 and 3" in str(err.value)


def test_unwrap_base_branch_selection():
    # the true phase 0.2*s passes pi at s = 16; pinned at s = 20 the lift takes
    # the principal argument there, one turn below the lift pinned at s = 0
    s = np.arange(32, dtype=float)
    values = np.exp(1j * 0.2 * s)
    tab = table(s, values)
    pinned = fp.unwrap_phase(tab, 20)
    plain = fp.unwrap_phase(tab, 0)
    assert pinned[20] == pytest.approx(np.angle(values[20]), abs=1e-12)
    np.testing.assert_allclose(plain, 0.2 * s, atol=1e-12)
    np.testing.assert_allclose(pinned - plain, -TWO_PI, atol=1e-12)


@seed(5)
@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, st.integers(8, 200),
           elements=st.floats(-2.9, 2.9, allow_nan=False))
)
def test_unwrap_roundtrip_hypothesis(steps):
    phase = np.concatenate([[0.3], 0.3 + np.cumsum(steps)])
    tab = table(np.arange(phase.size, dtype=float), np.exp(1j * phase))
    if np.any(np.abs(np.diff(steps)) > 1.5 * np.pi):
        # on the circle these steps look like a smooth phase whose step passes pi
        with pytest.raises(UnwrapResolutionError):
            fp.unwrap_phase(tab, 0)
        return
    phi = fp.unwrap_phase(tab, 0)
    # reconstruction on the circle is exact; the lift agrees up to one global turn
    np.testing.assert_allclose(np.exp(1j * phi), np.exp(1j * phase), atol=1e-9)
    offsets = (phi - phase) / TWO_PI
    np.testing.assert_allclose(offsets, np.round(offsets[0]), atol=1e-6)


def test_unwrap_refuses_true_step_passing_pi():
    # 64 nodes of exp(50i*r^2) on [e^-3, e^3]: every wrapped step stays inside
    # pi - jump_slack, but the true step passes pi at node 26 (r = 0.59) and a
    # plain cumulative sum is wrong beyond it
    s = log_s(-3.0, 3.0, 64)
    values = np.exp(50j * np.exp(2.0 * s))
    with pytest.raises(UnwrapResolutionError) as err:
        fp.unwrap_phase(table(s, values), 0)
    assert f"it resolves only [{np.exp(s[0]):.6g}, {np.exp(s[26]):.6g}]" in str(err.value)
    # the resolved part alone unwraps to the true phase, pinned at its first sample
    phi = fp.unwrap_phase(table(s[:27], values[:27]), 0)
    np.testing.assert_allclose(phi - phi[0],
                               50.0 * (np.exp(2.0 * s[:27]) - np.exp(2.0 * s[0])), atol=1e-10)


def test_table_lift_is_the_sum_of_wrapped_steps():
    # one lift in the library: the first principal argument plus the running
    # sum of the wrapped steps, bit for bit
    for alpha, beta, num in ((0.8, 1.3, 4096), (1.0, 7.0, 4096), (-1.5, -0.1, 1000), (2.0, 50.0, 64)):
        r = np.exp(np.linspace(-3.0, 3.0, num))
        values = np.exp(1j * beta * r**alpha)
        raw = np.angle(values)
        lift = fp.Tabulated(r, values).phase
        assert lift[0] == raw[0]
        np.testing.assert_array_equal(lift[1:], raw[0] + np.cumsum(_wrapped_steps(raw)))


# ------------------------------------------------------------- branch integers

def test_branch_integers_zero_branch():
    s = log_s(-4.0, 4.0, 2048)
    tab = table(s, np.exp(1j * 1.5 * np.exp(0.5 * s)))
    phi = fp.unwrap_phase(tab, 1024)
    m, n = fp.branch_integers(tab, fp.SemistablePair(4.0, 9.0), pin_of(tab, phi))
    assert (m, n) == (0, 0)


def test_branch_integers_nonzero_branch():
    # phi(r) = 7r - 2*pi: phi(2r) - 2 phi(r) = 2*pi, phi(3r) - 3 phi(r) = 4*pi
    s = log_s(-1.0, 2.5, 4096)
    phi = 7.0 * np.exp(s) - TWO_PI
    tab = table(s, np.exp(1j * phi))
    m, n = fp.branch_integers(tab, fp.SemistablePair(2.0, 3.0), pin_of(tab, phi))
    assert (m, n) == (1, 2)


def test_branch_integers_constant_trace():
    s = log_s(-3.0, 3.0, 1024)
    tab = table(s, np.ones(s.size, dtype=complex))
    assert fp.branch_integers(tab, fp.SemistablePair(2.0, 3.0), 0.0) == (0, 0)


def test_branch_integers_rejects_wrong_pair():
    s = log_s(-3.0, 3.0, 4096)
    phi = 1.0 * np.exp(2.0 * s)  # profile of (alpha=2, beta=1)
    tab = table(s, np.exp(1j * phi))
    with pytest.raises(BranchInconsistencyError):
        fp.branch_integers(tab, fp.SemistablePair(1.5, np.sqrt(3.0)), pin_of(tab, phi))


def test_branch_integers_needs_overlap():
    s = log_s(0.0, 0.5, 256)
    tab = table(s, np.ones(s.size, dtype=complex))
    with pytest.raises(InsufficientDataError):
        fp.branch_integers(tab, fp.SemistablePair(4.0, 9.0), 0.0)  # ln 9 > window


# -------------------------------------------------------------------- identify

def test_identify_round_trip_example():
    prof = fp.tabulate(fp.ClosedForm(0.5, 1.5), np.exp(-6.0), np.exp(6.0), 4096)
    res = fp.identify(prof, fp.SemistablePair(4.0, 9.0), tol=1e-8)
    assert not res.is_identity
    assert res.alpha == pytest.approx(0.5, abs=1e-8)
    assert res.beta == pytest.approx(1.5, abs=1e-8)
    assert res.M == 0 and res.N == 0
    assert res.gamma == pytest.approx(np.log(1.5), abs=1e-8)
    assert max(res.pair_residuals) <= 1e-9


def test_identify_constant_profile():
    r = np.exp(np.linspace(-3, 3, 512))
    res = fp.identify(fp.Tabulated(r, np.ones(512, dtype=complex)), fp.SemistablePair(2.0, 3.0))
    assert res.is_identity
    assert res.alpha == 0.0 and res.beta == 0.0
    assert res.gamma is None


def test_identify_nonzero_branch():
    prof = fp.tabulate(fp.ClosedForm(1.0, 7.0), np.exp(-3.0), np.exp(3.0), 4096)
    res = fp.identify(prof, fp.SemistablePair(2.0, 3.0), tol=1e-8)
    assert res.alpha == pytest.approx(1.0, abs=1e-9)
    assert res.beta == pytest.approx(7.0, abs=1e-8)
    assert (res.M, res.N) == (1, 2)


def test_identify_negative_coefficient_and_exponent():
    prof = fp.tabulate(fp.ClosedForm(-0.75, -2.0), np.exp(-4.0), np.exp(4.0), 4096)
    res = fp.identify(prof, fp.canonical_pair(-0.75), tol=1e-7)
    assert res.alpha == pytest.approx(-0.75, rel=1e-8)
    assert res.beta == pytest.approx(-2.0, rel=1e-8)


def test_identify_round_trip_grid():
    # >= 100 combinations over the full parameter box; each pair gets a window
    # on which its sampled phase is unwrap-valid at 4096 points
    alphas = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    betas = [0.1, 1.0, 3.0, 10.0]
    combos = 0
    for am in alphas:
        for bm in betas:
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    alpha, beta = sa * am, sb * bm
                    L = identify_halfwidth(alpha, beta)
                    prof = fp.tabulate(
                        fp.ClosedForm(alpha, beta), np.exp(-L), np.exp(L), 4096
                    )
                    res = fp.identify(prof, fp.canonical_pair(alpha))
                    assert abs(res.alpha - alpha) <= 1e-11 * abs(alpha)
                    assert abs(res.beta - beta) <= 1e-11 * abs(beta)
                    assert res.N == 2 * res.M
                    assert max(res.pair_residuals) <= 1e-9
                    combos += 1
    assert combos >= 100


def test_identify_branch_robustness():
    # lifting the phase by one full turn moves M by -1 and leaves the
    # branch-free phase and the phase increments, which the fit reads, unchanged
    prof = fp.tabulate(fp.ClosedForm(1.0, 7.0), np.exp(-3.0), np.exp(3.0), 4096)
    base_index = int(np.argmin(np.abs(prof.s)))
    pair = fp.SemistablePair(2.0, 3.0)

    plain = fp.unwrap_phase(prof, base_index)
    results = []
    for phi in (plain, plain + TWO_PI):
        m, _ = fp.branch_integers(prof, pair, pin_of(prof, phi))
        results.append((m, phi + TWO_PI * m, np.diff(phi)))
    (m0, phi0, steps0), (m1, phi1, steps1) = results
    assert m1 == m0 - 1
    assert np.all(phi0 > 0)
    np.testing.assert_allclose(phi1, phi0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(steps1, steps0, rtol=0, atol=1e-12)
    res = fp.identify(prof, pair)
    assert res.M == m0
    assert res.alpha == pytest.approx(1.0, rel=1e-13)
    assert res.beta == pytest.approx(7.0, rel=1e-13)


@pytest.mark.parametrize("coef, alpha, pair, want", [
    (1.3, 0.8, (2.378414230005442, 3.9482220388574776),
     ("0.7999999999999977", "1.3000000000000096", "1.6182610806936282e-12")),
    (7.0, 1.0, (2.0, 3.0),
     ("0.999999999999998", "7.000000000000051", "1.6635581800983346e-12")),
])
def test_identify_keeps_its_digits_on_the_ci_profiles(tmp_path, coef, alpha, pair, want):
    # the profile files the CI writes, and the digits identify prints for
    # them: the fit reads the lift's increments, so a lift that rounds
    # differently moves the last digits of alpha and beta
    r = np.exp(np.linspace(-3.0, 3.0, 4096))
    v = np.exp(1j * coef * r**alpha)
    path = tmp_path / "profile.csv"
    np.savetxt(path, np.column_stack([r, v.real, v.imag]), fmt="%.17g", delimiter=",",
               header="r,re,im", comments="")
    res = fp.identify(fp.load_symbol_csv(path), fp.SemistablePair(*pair))
    assert (repr(res.alpha), repr(res.beta), repr(res.fit_residual)) == want


def expected_branch(tab, beta, alpha):
    """M of phi(a*r) = 2*phi(r) + 2*pi*M for the phase pinned to its principal
    value at the node nearest r = 1: phi = beta*r**alpha + 2*pi*k there, so
    M = -k."""
    theta = beta * np.exp(alpha * tab.s[np.argmin(np.abs(tab.s))])
    return -round((float(np.angle(np.exp(1j * theta))) - theta) / TWO_PI)


def test_identify_branch_integers_beyond_zero_and_one():
    seen, seen_dilated = set(), set()
    for alpha in (0.5, 1.0, -0.5, -1.0):
        for beta in (1.0, 7.0, 13.0, -1.0, -7.0, -13.0):
            L = min(3.0, identify_halfwidth(alpha, beta))
            tab = fp.tabulate(fp.ClosedForm(alpha, beta), np.exp(-L), np.exp(L), 4096)
            pair = fp.canonical_pair(alpha)
            res = fp.identify(tab, pair)
            want = expected_branch(tab, beta, alpha)
            assert (res.M, res.N) == (want, 2 * want)
            seen.add(want)
            # a dilated table reads the parent's spline on the radii r / lam
            lam = 1.7
            dilated = fp.dilate(tab, lam)
            assert dilated._coef is tab._coef
            scaled = beta * lam**alpha
            res = fp.identify(dilated, pair)
            assert res.alpha == pytest.approx(alpha, rel=1e-11)
            assert res.beta == pytest.approx(scaled, rel=1e-11)
            want = expected_branch(dilated, scaled, alpha)
            assert (res.M, res.N) == (want, 2 * want)
            seen_dilated.add(want)
    assert seen == {-2, -1, 0, 1, 2}
    assert seen_dilated == {-4, -3, -2, -1, 0, 1, 2, 3, 4}


def test_identify_window_not_containing_unit_radius():
    # the base branch pins at the node nearest log-radius 0; recovery must not
    # depend on r = 1 being inside the tabulated window
    prof = fp.tabulate(fp.ClosedForm(1.0, 2.0), np.exp(1.0), np.exp(4.0), 4096)
    res = fp.identify(prof, fp.SemistablePair(2.0, 3.0), tol=1e-7)
    assert res.alpha == pytest.approx(1.0, abs=1e-8)
    assert res.beta == pytest.approx(2.0, rel=1e-8)


def test_identify_resolution_consistency():
    # two tabulations of the same symbol identify to the same parameters
    spec = fp.ClosedForm(0.7, 2.0)
    pair = fp.canonical_pair(0.7)
    res = []
    for num in (2048, 8192):
        prof = fp.tabulate(spec, np.exp(-4.0), np.exp(4.0), num)
        out = fp.identify(prof, pair, tol=1e-6)
        res.append((out.alpha, out.beta))
    assert abs(res[0][0] - res[1][0]) <= 1e-7
    assert abs(res[0][1] - res[1][1]) <= 1e-7


def test_identify_degenerate_sign_change():
    # phi = 1e-3*(r - 1) changes sign at r = 1; its branch offsets are
    # 1e-3/(2*pi) and 2e-3/(2*pi), within the branch tolerance of the
    # constant 0, so the pipeline reaches the sign check
    r = np.exp(np.linspace(-0.9, 1.5, 2048))
    phi = 1e-3 * (r - 1.0)
    prof = fp.Tabulated(r, np.exp(1j * phi))
    with pytest.raises(DegenerateSymbolError):
        fp.identify(prof, fp.SemistablePair(2.0, 3.0))


def test_identify_model_mismatch():
    # sign-definite and branch-consistent (the ripple moves the branch offsets
    # by at most 3e-3/(2*pi)), but a log-periodic ripple on top of the power
    # law cannot be reproduced by any exp(i*beta*r^alpha)
    r = np.exp(np.linspace(-2.0, 2.0, 2048))
    phi = 1.0 * r + 1e-3 * np.sin(np.log(r) * np.pi / 2.0)
    prof = fp.Tabulated(r, np.exp(1j * phi))
    with pytest.raises(ModelMismatchError):
        fp.identify(prof, fp.SemistablePair(2.0, 3.0), tol=1e-9, pair_tol=1.0)


def test_identify_flat_phase_is_an_inconsistent_pair():
    # a constant phase other than 0 has exponent 0, and a**0 = 1 never doubles
    r = np.exp(np.linspace(-3.0, 3.0, 512))
    prof = fp.Tabulated(r, np.full(512, np.exp(0.01j)))
    with pytest.raises(InconsistentPairError) as err:
        fp.identify(prof, fp.SemistablePair(2.0, 3.0))
    assert "flat" in str(err.value)


def test_identify_requires_tabulated():
    with pytest.raises(Exception):
        fp.identify(fp.ClosedForm(2.0, 1.0), fp.SemistablePair(2.0, 3.0))


def _rippled_profile(ripple):
    r = np.exp(np.linspace(-3.0, 3.0, 4096))
    return fp.Tabulated(r, np.exp(1j * (0.8 * r**1.3 + ripple * np.sin(5.0 * np.log(r)))))


@pytest.mark.parametrize("tol, pair_tol", [(np.nan, 1e-6), (np.inf, 1e-6), (-1.0, 1e-6),
                                           (1e-9, np.nan), (1e-9, np.inf), (1e-9, -1.0)])
def test_identify_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol, pair_tol):
    # a nan tolerance compares false and would accept the rippled profile;
    # an infinite one would call it the identity
    prof = _rippled_profile(1e-3)
    with pytest.raises(InvalidInputError, match="must be finite and >= 0"):
        fp.identify(prof, fp.canonical_pair(1.3), tol=tol, pair_tol=pair_tol)


def test_identify_still_rejects_a_small_ripple_at_the_default_tolerance():
    with pytest.raises(ModelMismatchError):
        fp.identify(_rippled_profile(1e-6), fp.canonical_pair(1.3))
