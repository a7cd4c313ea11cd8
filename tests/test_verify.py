"""The verify suite over the benchmark's symbol families."""

import numpy as np
import pytest

import fracprop as fp
import fracprop.operators as operators
import fracprop.verify as verify

FAMILIES = [
    (2.0, 1.0), (1.0, 1.0), (0.5, 2.0), (1.5, -1.0), (-1.0, 1.0),
    (3.0, 5.0), (4.0, 1.0), (0.25, 1.0), (0.0, 0.0),
]

# order_doubling_signal needs a rescaling by 2**(1/alpha) that fits the fixed
# verification grid and a group delay inside its window; these families miss
# one or the other (the trivial group has no order at all)
SIGNAL_CHECK_SKIPPED = {(3.0, 5.0), (4.0, 1.0), (0.25, 1.0), (0.0, 0.0)}


@pytest.mark.parametrize("alpha, beta, fast", [
    pytest.param(alpha, beta, fast, id=f"{alpha}-{beta}" + ("" if fast else "-full"))
    for alpha, beta in FAMILIES for fast in (True, False)
])
def test_verification_families_pass(alpha, beta, fast):
    report = fp.run_verification(alpha, beta, seed=7, fast=fast)
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])
    skipped = {c["name"] for c in report["checks"] if c["skipped"]}
    assert ("order_doubling_signal" in skipped) == ((alpha, beta) in SIGNAL_CHECK_SKIPPED)


def _spike_two_bins_off(m1, m2, band, grid, trials, seed):
    """The exact spike of ``probe_operator_distance``, put two band bins
    above the bin of largest mismatch."""
    _, idx, radius = grid._band_bins(band.R)
    worst = int(np.argmax(np.abs(fp.evaluate(m1, radius) - fp.evaluate(m2, radius))))
    spike = np.zeros(grid.n, dtype=complex)
    spike[idx[worst + 2]] = 1.0 / np.sqrt(grid.dxi)
    return operators._probe_ratio(m1, m2, fp.Spectrum(grid, spike), band)


@pytest.mark.parametrize("fast", [False, True])
def test_operator_distance_lower_refuses_a_spike_two_bins_off(monkeypatch, fast):
    # the worst bin lies within half a bin of the maximum, so its gap is at
    # most (pi*alpha*dxi)**2/16; two bins off the gap is at least 9/4 of
    # (pi*alpha*dxi)**2/4, over the tolerance (pi*alpha*dxi)**2/8 + 1e-12*scale
    # and under the 1e-3 (1e-2 with --fast) the check allowed before
    monkeypatch.setattr(verify, "probe_operator_distance", _spike_two_bins_off)
    report = fp.run_verification(2.0, 1.0, seed=7, fast=fast)
    lower = next(c for c in report["checks"] if c["name"] == "operator_distance_lower")
    assert not lower["pass"]
    assert lower["tolerance"] < lower["residual"] <= (1e-2 if fast else 1e-3)
    assert report["pass"] is False
