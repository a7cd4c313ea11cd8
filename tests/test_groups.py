"""One-parameter groups: members, group law, scaling identity, slope recovery."""

import numpy as np
import pytest

import fracprop as fp
import fracprop.groups as groups
from fracprop.errors import DomainError, InsufficientDataError, InvalidInputError
from fracprop.operators import _apply_spectrum, _on_band
from conftest import band_packet, identify_halfwidth


def test_group_spec_validation():
    fp.GroupSpec(0.0, 0.0)  # trivial group is fine
    fp.GroupSpec(2.0, -1.0)
    with pytest.raises(DomainError):
        fp.GroupSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        fp.GroupSpec(2.0, 0.0)


def test_member_examples():
    g = fp.GroupSpec(2.0, 1.0)
    at0 = fp.member(g, 0.0)
    assert at0.beta == 0.0
    r = np.exp(np.linspace(-3, 3, 64))
    np.testing.assert_array_equal(fp.evaluate(at0, r), np.ones(64))
    assert fp.member(g, 0.3) == fp.ClosedForm(2.0, 0.3)
    assert fp.member(fp.GroupSpec(1.0, -2.0), -1.0) == fp.ClosedForm(1.0, 2.0)


def test_group_law_examples(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    g = fp.GroupSpec(2.0, 1.0)
    assert fp.check_group_law(g, 0.3, 0.7, f, wide_band) <= 1e-12
    assert fp.check_group_law(g, 1.4, -1.4, f, wide_band) <= 1e-12


def test_group_law_random_times(packet_grid, wide_band):
    f = band_packet(packet_grid, wide_band)
    g = fp.GroupSpec(2.0, 1.0)
    rng = np.random.default_rng(77)
    worst = max(
        fp.check_group_law(g, rng.uniform(-3, 3), rng.uniform(-3, 3), f, wide_band)
        for _ in range(50)
    )
    assert worst <= 1e-12


def test_group_law_rejects_zero_signal():
    # a zero signal has no relative residual: a typed error, not nan
    grid = fp.SpatialGrid(64, 8.0)
    zero = fp.SampledSignal(grid, np.zeros(64))
    with pytest.raises(InvalidInputError):
        fp.check_group_law(fp.GroupSpec(2.0, 1.0), 0.5, 0.25, zero, fp.BandSpec(2.0))


def signal_space_group_law(group, t1, t2, f, band):
    """The group-law residual with both sides carried back to signals."""
    F = fp.forward_transform(f)
    lhs = _apply_spectrum(_on_band(groups.member(group, t1 + t2), f.grid, band), F, band)
    mid = _apply_spectrum(_on_band(groups.member(group, t2), f.grid, band), F, band)
    rhs = fp.apply(groups.member(group, t1), mid, band)
    return np.linalg.norm(lhs.values - rhs.values) * np.sqrt(f.grid.dx) / f.norm()


@pytest.mark.parametrize("alpha, beta", [
    (0.0, 0.0), (2.0, 1.0), (1.0, -2.0), (0.5, 1.0), (3.0, 5.0), (6.0, 1.0),
    (2.0, 30.0), (0.1, 1.0), (-1.0, 20.0), (-2.0, 10.0), (-0.5, 3.0),
])
def test_group_law_on_band_bins_matches_signal_space(alpha, beta):
    # by discrete Plancherel the band-bin residual is the signal-space one;
    # the two differ by round-off, bounded by verify's floor for group_law
    group = fp.GroupSpec(alpha, beta)
    rng = np.random.default_rng(11)
    for n, R in ((4096, 8.0), (2048, 4.0)):
        grid = fp.SpatialGrid(n, 128.0)
        band = fp.BandSpec(R)
        f = fp.inverse_transform(fp.random_band_signal(band, grid, 7, stream=10_001))
        floor = 4.0 * np.finfo(float).eps * max(abs(beta) * 12.0 * R ** abs(alpha), 1.0)
        for _ in range(20):
            t1, t2 = rng.uniform(-3.0, 3.0, size=2)
            ref = signal_space_group_law(group, t1, t2, f, band)
            assert abs(fp.check_group_law(group, t1, t2, f, band) - ref) <= floor


def test_group_law_sees_a_coefficient_not_linear_in_time(monkeypatch):
    # a member whose coefficient bends in t breaks the law by ~1e-6, and the
    # band-bin residual still reads what the signal-space one does
    monkeypatch.setattr(groups, "member",
                        lambda g, t: fp.ClosedForm(g.alpha, g.beta * t + 1e-9 * t**2))
    grid = fp.SpatialGrid(4096, 128.0)
    band = fp.BandSpec(8.0)
    f = fp.inverse_transform(fp.random_band_signal(band, grid, 7))
    group = fp.GroupSpec(2.0, 1.0)
    res = fp.check_group_law(group, 1.5, -2.5, f, band)
    assert res > 1e-12
    assert res == pytest.approx(signal_space_group_law(group, 1.5, -2.5, f, band), rel=1e-9)
    report = fp.run_verification(2.0, 1.0, 7)
    law = {c["name"]: c for c in report["checks"]}["group_law"]
    assert not law["pass"]
    assert not report["pass"]


def test_scaling_identity_examples():
    assert fp.check_scaling(fp.GroupSpec(1.0, 2.0), 8.0) == 0.0
    assert fp.check_scaling(fp.GroupSpec(2.0, 1.0), 0.25) == 0.0
    assert fp.check_scaling(fp.GroupSpec(2.0, 1.0), 1.0) == 0.0
    assert fp.check_scaling(fp.GroupSpec(2.0, 5.0), 8.0) <= 1e-12
    with pytest.raises(DomainError):
        fp.check_scaling(fp.GroupSpec(0.0, 0.0), 2.0)
    with pytest.raises(DomainError):
        fp.check_scaling(fp.GroupSpec(2.0, 1.0), -1.0)


def test_scaling_out_of_range_is_a_domain_error():
    # the chord sup's phase 1*r**400 leaves the float range at r = e^3
    with pytest.raises(DomainError, match=r"phase .*\*r\*\*400 overflows"):
        fp.check_scaling(fp.GroupSpec(400.0, 1.0), 8.0)
    # the rescaling factor 8**(1/alpha) itself leaves it, above or below
    with pytest.raises(DomainError, match=r"t\*\*\(1/alpha\) = 8\*\*.* overflows"):
        fp.check_scaling(fp.GroupSpec(2.5e-3, 1.0), 8.0)
    with pytest.raises(DomainError, match=r"t\*\*\(1/alpha\) = 8\*\*-400 underflows to 0"):
        fp.check_scaling(fp.GroupSpec(-2.5e-3, 1.0), 8.0)


def test_adjoint_is_negative_time(packet_grid, wide_band):
    # unitarity: applying T(t) then T(-t) restores the band projection, i.e.
    # the inverse (= adjoint) is the conjugate symbol
    g = fp.GroupSpec(2.0, 1.3)
    f = band_packet(packet_grid, wide_band)
    back = fp.apply(fp.member(g, -0.8), fp.apply(fp.member(g, 0.8), f, wide_band), wide_band)
    num = np.linalg.norm(back.values - f.values) * np.sqrt(packet_grid.dx)
    assert num / f.norm() <= 1e-12
    conj = np.conj(fp.evaluate(fp.member(g, 0.8), 1.7))
    assert conj == pytest.approx(complex(fp.evaluate(fp.member(g, -0.8), 1.7)), abs=1e-15)


def test_order_constant_across_times():
    g = fp.GroupSpec(0.5, 1.0)
    pair = fp.canonical_pair(0.5)
    for t in (0.1, 0.5, 1.0, 2.0, 10.0):
        mem = fp.member(g, t)
        L = identify_halfwidth(mem.alpha, mem.beta)
        prof = fp.tabulate(mem, np.exp(-L), np.exp(L), 4096)
        res = fp.identify(prof, pair, tol=1e-6)
        assert abs(res.alpha - 0.5) <= 1e-6 * 0.5
        assert abs(res.beta - g.beta * t) <= 1e-6 * abs(g.beta * t)


def test_recover_beta_examples():
    fit = fp.recover_beta([(k / 10.0, 3.0 * (k / 10.0)) for k in range(1, 21)])
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.residual <= 1e-12

    ts = [k / 7.0 for k in range(-6, 7) if k != 0]
    fit = fp.recover_beta([(t, -2.5 * t) for t in ts])
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)

    rng = np.random.default_rng(4)
    noisy = [(t, 3.0 * t + rng.uniform(-1e-10, 1e-10)) for t in np.linspace(0.2, 2.0, 12)]
    assert fp.recover_beta(noisy).slope == pytest.approx(3.0, abs=1e-8)


def test_recover_beta_errors():
    with pytest.raises(InsufficientDataError):
        fp.recover_beta([(1.0, 2.0)] * 3)
    with pytest.raises(InsufficientDataError):
        fp.recover_beta([(1.0, 2.0)] * 10)  # identical times


def test_end_to_end_slope_recovery():
    # tabulate members across times, identify each, regress the coefficients
    g = fp.GroupSpec(0.5, 1.5)
    pair = fp.canonical_pair(0.5)
    samples = []
    for k in range(1, 21):
        t = k / 10.0
        mem = fp.member(g, t)
        prof = fp.tabulate(mem, np.exp(-6.0), np.exp(6.0), 4096)
        res = fp.identify(prof, pair, tol=1e-6)
        samples.append((t, res.beta))
    fit = fp.recover_beta(samples)
    assert abs(fit.slope - 1.5) <= 1e-6 * 1.5
