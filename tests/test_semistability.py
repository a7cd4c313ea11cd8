"""Scale-doubling/tripling checks and the canonical pair."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fracprop as fp
import fracprop.semistability as semistability
import fracprop.symbols as symbols
from fracprop.errors import DomainError, SymbolRangeError
from conftest import band_packet, relative_l2

SWEEP_ALPHAS = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]
SWEEP_BETAS = [-5.0, -1.0, 0.1, 1.0, 7.0]


def test_canonical_pair_values():
    p = fp.canonical_pair(2.0)
    assert p.a == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert p.b == pytest.approx(np.sqrt(3.0), rel=1e-15)
    p = fp.canonical_pair(1.0)
    assert (p.a, p.b) == (2.0, 3.0)
    p = fp.canonical_pair(-1.0)
    assert p.a == pytest.approx(0.5, rel=1e-15)
    assert p.b == pytest.approx(1.0 / 3.0, rel=1e-15)
    with pytest.raises(DomainError):
        fp.canonical_pair(0.0)


def test_canonical_pair_out_of_range_is_a_domain_error():
    with pytest.raises(DomainError, match=r"2\*\*\(1/alpha\) = 2\*\*10000 overflows"):
        fp.canonical_pair(1e-4)
    # 2**(1/alpha) still fits, 3**(1/alpha) does not
    with pytest.raises(DomainError, match=r"3\*\*\(1/alpha\) .* overflows"):
        fp.canonical_pair(1.5e-3)
    with pytest.raises(DomainError, match=r"2\*\*\(1/alpha\) = 2\*\*-10000 underflows to 0"):
        fp.canonical_pair(-1e-4)


@pytest.mark.parametrize("alpha, exponent", [(-0.0015, "-666.667"), (-0.00148, "-675.676")])
def test_canonical_pair_refuses_a_subnormal_constant(alpha, exponent):
    # 3**(1/alpha) is nonzero but below the smallest normal float, so it keeps
    # only a few significant bits and the pair would fail its own relations
    assert 0.0 < 3.0 ** (1.0 / alpha) < np.finfo(float).tiny
    with pytest.raises(DomainError,
                       match=rf"3\*\*\(1/alpha\) = 3\*\*{exponent} = .* is subnormal"):
        fp.canonical_pair(alpha)


def test_pair_validation():
    with pytest.raises(DomainError):
        fp.SemistablePair(1.0, 3.0)  # a = 1 forces the constant symbol
    with pytest.raises(DomainError):
        fp.SemistablePair(-2.0, 3.0)


def test_check_semistable_canonical_closed_form():
    rep = fp.check_semistable(fp.ClosedForm(2.0, 1.0), fp.canonical_pair(2.0))
    assert rep.res2 <= 1e-13 and rep.res3 <= 1e-13
    assert rep.sym_res == 0.0
    assert rep.passed


def test_check_semistable_constant_one():
    rep = fp.check_semistable(fp.ClosedForm(2.0, 0.0), fp.SemistablePair(2.0, 3.0))
    assert rep.res2 == 0.0 and rep.res3 == 0.0 and rep.passed


def test_check_semistable_wrong_pair_dense_oracle():
    # phase mismatch 0.25*r^2 sweeps past pi on [e-3, e3], so the sup is 2
    r = np.exp(np.linspace(-3.0, 3.0, 100_000))
    oracle = np.max(np.abs(np.exp(1j * 0.25 * r**2) - 1.0))
    assert oracle >= 2.0 - 1e-6
    rep = fp.check_semistable(
        fp.ClosedForm(2.0, 1.0), fp.SemistablePair(1.5, np.sqrt(3.0))
    )
    assert rep.res2 == 2.0
    assert not rep.passed


def test_sweep_canonical_passes_and_perturbed_fails():
    for alpha in SWEEP_ALPHAS:
        pair = fp.canonical_pair(alpha)
        for beta in SWEEP_BETAS:
            spec = fp.ClosedForm(alpha, beta)
            assert fp.check_semistable(spec, pair).passed, (alpha, beta)
            bad = fp.SemistablePair(pair.a * 1.01, pair.b)
            assert not fp.check_semistable(spec, bad).passed, (alpha, beta)


def test_check_semistable_tabulated():
    spec = fp.ClosedForm(0.5, 1.5)
    tab = fp.tabulate(spec, np.exp(-4.0), np.exp(4.0), 4096)
    rep = fp.check_semistable(tab, fp.canonical_pair(0.5), tol=1e-8)
    assert rep.passed
    # effective range is clipped so r, a*r, b*r all stay inside the table
    assert rep.r_range[0] >= np.exp(-4.0) - 1e-12
    assert rep.r_range[1] <= np.exp(4.0) / 9.0 * (1 + 1e-12)


def test_check_semistable_tabulated_evaluates_m_once(evaluate_calls):
    # both relations are read from the spline's coefficients, not from
    # samples: the only evaluations are the two sides of the symmetry check
    tab = fp.tabulate(fp.ClosedForm(0.5, 1.5), np.exp(-4.0), np.exp(4.0), 4096)
    evaluate_calls.clear()
    fp.check_semistable(tab, fp.canonical_pair(0.5), tol=1e-8)
    assert len(evaluate_calls) == 2


def _dense_residuals(tab, pair, r_range, num=2_000_000):
    """The largest |m(lam*r) - m(r)**k| = 2|sin(D/2)| of D = P(s + log lam)
    - k*P(s) on ``num`` log-uniform points of ``r_range``, for (a, 2) and
    (b, 3), from the spline phase P."""
    s = np.linspace(np.log(r_range[0]), np.log(r_range[1]), num)
    base = symbols._spline_eval(tab, s)
    return [float(np.max(2.0 * np.abs(np.sin(
                (symbols._spline_eval(tab, s + np.log(lam)) - k * base) / 2.0))))
            for lam, k in ((pair.a, 2.0), (pair.b, 3.0))]


def test_check_semistable_sees_a_glitch_between_the_check_radii():
    # exp(i*r) on 65536 nodes with 1e-7 rad added at one node: the check
    # radii straddle the glitch's few intervals, and the interpolant's
    # residuals are about 1e-7 times 2 and 3
    r = np.exp(np.linspace(-3.0, 3.0, 65536))
    phase = r.copy()
    phase[32830] += 1e-7
    tab = fp.Tabulated(r, np.exp(1j * phase))
    pair = fp.canonical_pair(1.0)
    rep = fp.check_semistable(tab, pair, tol=1e-9)
    assert not rep.passed
    dense2, dense3 = _dense_residuals(tab, pair, rep.r_range)
    assert dense2 == pytest.approx(2e-7, rel=0.01) and dense3 == pytest.approx(3e-7, rel=0.01)
    assert rep.res2 == pytest.approx(dense2, rel=0.01)
    assert rep.res3 == pytest.approx(dense3, rel=0.01)


@seed(22)
@settings(max_examples=5, deadline=None)
@given(
    st.floats(0.5, 1.6),
    st.floats(0.3, 2.5),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([512, 1024, 4096]),
    st.sampled_from([(1.0, 1.0), (1.0 + 1e-3, 1.0), (1.0, 1.0 - 1e-6), (1.0 + 1e-9, 1.0)]),
)
def test_check_semistable_tabulated_matches_a_dense_evaluation(alpha, beta, sign, nodes, scale):
    # the exact residuals of a power-law table bound every dense sample of
    # the interpolant's residual and are within 2% of their maximum, from
    # round-off (canonical pair) to 1e-2 (a perturbed by 1e-3)
    tab = fp.tabulate(fp.ClosedForm(alpha, sign * beta), np.exp(-3.0), np.exp(3.0), nodes)
    canonical = fp.canonical_pair(alpha)
    pair = fp.SemistablePair(canonical.a * scale[0], canonical.b * scale[1])
    rep = fp.check_semistable(tab, pair, tol=1e-9)
    for exact, dense in zip((rep.res2, rep.res3), _dense_residuals(tab, pair, rep.r_range)):
        assert dense - 1e-13 <= exact <= dense * 1.02 + 1e-13


def test_check_semistable_tabulated_range_too_small():
    tab = fp.tabulate(fp.ClosedForm(0.5, 1.5), 0.9, 1.1, 64)
    with pytest.raises(SymbolRangeError):
        fp.check_semistable(tab, fp.canonical_pair(0.5))


def test_signal_level_cross_check(packet_grid, wide_band):
    # T(T f) versus the conjugated operator at the canonical factor
    f = band_packet(packet_grid, wide_band)
    for alpha in (0.5, 1.0, 2.0):
        spec = fp.ClosedForm(alpha, 1.0)
        pair = fp.canonical_pair(alpha)
        twice = fp.apply(spec, fp.apply(spec, f, wide_band), wide_band)
        conj = fp.conjugated_apply(spec, pair.a, f, wide_band)
        assert relative_l2(packet_grid, twice.values, conj.values, f.norm()) <= 1e-7


def test_check_order_true_cases():
    for spec in (fp.ClosedForm(2.0, 1.0), fp.ClosedForm(0.5, -3.0),
                 fp.ClosedForm(-1.0, 0.25), fp.ClosedForm(0.0, 0.0)):
        assert semistability.order_doubling_residual(spec) <= 1e-12
    with pytest.raises(DomainError):
        semistability.order_doubling_residual(fp.ClosedForm(0.0, 1.0))


def test_check_order_detects_corrupted_dilation(monkeypatch):
    # mutation check: a rescale that uses 1.4 instead of sqrt(2) must be caught
    real_dilate = semistability.dilate

    def broken(spec, lam):
        return real_dilate(spec, 1.4 if abs(lam - np.sqrt(2.0)) < 0.1 else lam)

    monkeypatch.setattr(semistability, "dilate", broken)
    assert semistability.order_doubling_residual(fp.ClosedForm(2.0, 1.0)) > 1e-12


def test_order_and_scaling_exact_for_large_exponents():
    # (2**(1/alpha))**alpha carries about |alpha|/2 ulps of rounding, which
    # the chord sup over [e^-3, e^3] magnifies by r**alpha; the snap absorbs
    # it up to where r**alpha leaves the float range (|alpha| near 237)
    rng = np.random.default_rng(154)
    alphas = np.concatenate([[154.0, -154.0, 236.0, -236.0],
                             rng.choice([-1.0, 1.0], 150) * rng.uniform(1.0, 236.0, 150)])
    for alpha in alphas:
        beta = float(rng.uniform(0.1, 5.0)) * float(rng.choice([-1.0, 1.0]))
        assert semistability.order_doubling_residual(fp.ClosedForm(alpha, beta)) <= 1e-12, alpha
        group = fp.GroupSpec(alpha, beta)
        assert max(fp.check_scaling(group, t) for t in (0.25, 1.0, 8.0)) <= 1e-12, alpha


@pytest.mark.parametrize("alpha", [154.0, -154.0])
def test_order_check_catches_a_small_rescale_error_at_large_exponent(monkeypatch, alpha):
    # the wider snap still leaves a 1e-9 relative error in the rescale factor
    # (about 1e-7 in lam**alpha) far outside it
    real_dilate = semistability.dilate
    monkeypatch.setattr(semistability, "dilate",
                        lambda spec, lam: real_dilate(spec, lam * (1.0 + 1e-9)))
    assert semistability.order_doubling_residual(fp.ClosedForm(alpha, 1.0)) == 2.0


def test_report_serialization():
    rep = fp.check_semistable(fp.ClosedForm(1.0, 1.0), fp.canonical_pair(1.0))
    d = rep.to_dict()
    assert set(d) == {"res2", "res3", "sym_res", "pass", "pair", "tol", "r_range"}
    assert d["pass"] is True
    assert d["pair"] == {"a": 2.0, "b": 3.0}
