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
    ModelMismatchError,
    UnwrapResolutionError,
)
from fracprop.identification import TWO_PI
from conftest import identify_halfwidth


def log_s(lo, hi, num):
    return np.linspace(lo, hi, num)


# ---------------------------------------------------------------------- unwrap

def test_unwrap_slowly_varying():
    s = np.arange(101, dtype=float)
    true = 0.1 * s
    trace = fp.unwrap_phase(s, np.exp(1j * true))
    np.testing.assert_allclose(trace.phi, true, atol=1e-12)


def test_unwrap_constant_one():
    s = np.arange(32, dtype=float)
    trace = fp.unwrap_phase(s, np.ones(32, dtype=complex))
    np.testing.assert_array_equal(trace.phi, np.zeros(32))


def test_unwrap_symbolic_oracle():
    # e^{i*7r} on r in [1, e]: continuous phase is 7*e^s, pinned at s=0 to the
    # principal branch 7 - 2*pi
    s = log_s(0.0, 1.0, 2048)
    values = np.exp(1j * 7.0 * np.exp(s))
    trace = fp.unwrap_phase(s, values, base_index=0)
    expected = 7.0 * np.exp(s) - TWO_PI
    assert trace.phi[0] == pytest.approx(7.0 - TWO_PI, abs=1e-14)
    np.testing.assert_allclose(trace.phi, expected, atol=1e-11)


def test_unwrap_reports_offending_index():
    s = np.arange(6, dtype=float)
    phases = np.array([0.0, 0.1, 0.2, 0.2 + np.pi, 0.4, 0.5])
    with pytest.raises(UnwrapResolutionError) as err:
        fp.unwrap_phase(s, np.exp(1j * phases))
    assert "samples 2 and 3" in str(err.value)


def test_unwrap_base_branch_selection():
    # the true phase 0.2*s passes pi at s = 16; pinned at s = 20 the lift takes
    # the principal argument there, one turn below the lift pinned at s = 0
    s = np.arange(32, dtype=float)
    values = np.exp(1j * 0.2 * s)
    pinned = fp.unwrap_phase(s, values, base_index=20)
    plain = fp.unwrap_phase(s, values)
    assert pinned.phi[20] == pytest.approx(np.angle(values[20]), abs=1e-12)
    np.testing.assert_allclose(plain.phi, 0.2 * s, atol=1e-12)
    np.testing.assert_allclose(pinned.phi - plain.phi, -TWO_PI, atol=1e-12)


@seed(5)
@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, st.integers(8, 200),
           elements=st.floats(-2.9, 2.9, allow_nan=False))
)
def test_unwrap_roundtrip_hypothesis(steps):
    phase = np.concatenate([[0.3], 0.3 + np.cumsum(steps)])
    s = np.arange(phase.size, dtype=float)
    if np.any(np.abs(np.diff(steps)) > 1.5 * np.pi):
        # on the circle these steps look like a smooth phase whose step passes pi
        with pytest.raises(UnwrapResolutionError):
            fp.unwrap_phase(s, np.exp(1j * phase))
        return
    trace = fp.unwrap_phase(s, np.exp(1j * phase))
    # reconstruction on the circle is exact; the lift agrees up to one global turn
    np.testing.assert_allclose(np.exp(1j * trace.phi), np.exp(1j * phase), atol=1e-9)
    offsets = (trace.phi - phase) / TWO_PI
    np.testing.assert_allclose(offsets, np.round(offsets[0]), atol=1e-6)


def test_unwrap_refuses_true_step_passing_pi():
    # 64 nodes of exp(50i*r^2) on [e^-3, e^3]: every wrapped step stays inside
    # pi - jump_slack, but the true step passes pi at node 26 (r = 0.59) and a
    # plain cumulative sum is wrong beyond it
    s = log_s(-3.0, 3.0, 64)
    values = np.exp(50j * np.exp(2.0 * s))
    with pytest.raises(UnwrapResolutionError) as err:
        fp.unwrap_phase(s, values)
    assert "sample 26" in str(err.value)
    # the resolved part alone unwraps to the true phase, pinned at its first sample
    trace = fp.unwrap_phase(s[:27], values[:27])
    np.testing.assert_allclose(trace.phi - trace.phi[0],
                               50.0 * (np.exp(2.0 * s[:27]) - np.exp(2.0 * s[0])), atol=1e-10)


# ------------------------------------------------------------- branch integers

def test_branch_integers_zero_branch():
    s = log_s(-4.0, 4.0, 2048)
    values = np.exp(1j * 1.5 * np.exp(0.5 * s))
    trace = fp.unwrap_phase(s, values, base_index=1024)
    m, n = fp.branch_integers(trace, fp.SemistablePair(4.0, 9.0))
    assert (m, n) == (0, 0)


def test_branch_integers_nonzero_branch():
    # phi(r) = 7r - 2*pi: phi(2r) - 2 phi(r) = 2*pi, phi(3r) - 3 phi(r) = 4*pi
    s = log_s(-1.0, 2.5, 4096)
    phi = 7.0 * np.exp(s) - TWO_PI
    trace = fp.PhaseTrace(s, phi, 0)
    m, n = fp.branch_integers(trace, fp.SemistablePair(2.0, 3.0))
    assert (m, n) == (1, 2)


def test_branch_integers_constant_trace():
    s = log_s(-3.0, 3.0, 1024)
    trace = fp.PhaseTrace(s, np.zeros_like(s), 512)
    assert fp.branch_integers(trace, fp.SemistablePair(2.0, 3.0)) == (0, 0)


def test_branch_integers_rejects_wrong_pair():
    s = log_s(-3.0, 3.0, 4096)
    phi = 1.0 * np.exp(2.0 * s)  # profile of (alpha=2, beta=1)
    trace = fp.PhaseTrace(s, phi, 2048)
    with pytest.raises(BranchInconsistencyError):
        fp.branch_integers(trace, fp.SemistablePair(1.5, np.sqrt(3.0)))


def test_branch_integers_needs_overlap():
    s = log_s(0.0, 0.5, 256)
    trace = fp.PhaseTrace(s, np.zeros_like(s), 0)
    with pytest.raises(InsufficientDataError):
        fp.branch_integers(trace, fp.SemistablePair(4.0, 9.0))  # ln 9 > window


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
    # lifting the trace by one full turn moves M by -1 and leaves the
    # branch-free phase and the phase increments, which the fit reads, unchanged
    prof = fp.tabulate(fp.ClosedForm(1.0, 7.0), np.exp(-3.0), np.exp(3.0), 4096)
    base_index = int(np.argmin(np.abs(prof.s)))
    pair = fp.SemistablePair(2.0, 3.0)

    plain = fp.unwrap_phase(prof.s, prof.values, base_index=base_index)
    results = []
    for trace in (plain, fp.PhaseTrace(prof.s, plain.phi + TWO_PI, base_index)):
        m, _ = fp.branch_integers(trace, pair)
        results.append((m, trace.phi + TWO_PI * m, np.diff(trace.phi)))
    (m0, phi0, steps0), (m1, phi1, steps1) = results
    assert m1 == m0 - 1
    assert np.all(phi0 > 0)
    np.testing.assert_allclose(phi1, phi0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(steps1, steps0, rtol=0, atol=1e-12)
    res = fp.identify(prof, pair)
    assert res.M == m0
    assert res.alpha == pytest.approx(1.0, rel=1e-13)
    assert res.beta == pytest.approx(7.0, rel=1e-13)


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
