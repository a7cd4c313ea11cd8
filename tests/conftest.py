"""Shared helpers: independent analytic oracles and probe constructions.

Oracles here are deliberately computed by routes the library does not use
(closed-form Gaussian integrals, direct summation, dense-grid maximization),
so agreement is evidence rather than tautology.
"""

import numpy as np
import pytest

import fracprop as fp
from fracprop.errors import InvalidInputError


def evolved_packet_oracle(x, x0, width, carrier, phase_coef):
    """Closed-form evolution of a modulated Gaussian under exp(i*c*xi^2).

    The packet exp(-w^2 (x-x0)^2/2 + i*xi0*(x-x0)) has spectrum
    (1/w) * exp(-(xi-xi0)^2/(2 w^2)) (unitary convention, up to the carrier
    shift); multiplying by exp(i*c*xi^2) and inverting is a complex Gaussian
    integral evaluated here by the standard quadratic-completion formula.
    """
    q = width * width / 2.0
    A = 1.0 / (4.0 * q) - 1j * phase_coef
    B = carrier / (2.0 * q) + 1j * (x - x0)
    C = -(carrier**2) / (4.0 * q)
    return (
        (1.0 / np.sqrt(2.0 * np.pi))
        * (1.0 / np.sqrt(2.0 * q))
        * np.sqrt(np.pi / A)
        * np.exp(B * B / (4.0 * A) + C)
    )


def band_packet(grid, band, width=0.3, carrier=3.0, center=0.0):
    """Gaussian packet projected onto the band.

    With the default geometry the spectral tails at the band edges and the
    spatial tails at the window edge are both below 1e-12, so wrap-around and
    clipping stay under the round-off budget of every identity that uses it.
    """
    packet = fp.gaussian_packet(grid, center=center, spectral_width=width, carrier=carrier)
    return fp.inverse_transform(fp.band_project(fp.forward_transform(packet), band))


def relative_l2(grid, a_values, b_values, denom):
    return float(np.linalg.norm(a_values - b_values) * np.sqrt(grid.dx) / denom)


def identify_halfwidth(alpha, beta, num=4096, budget=np.pi / 4.0):
    """Half-width L of a log-radius window [e^-L, e^L] on which the sampled
    phase of exp(i*beta*r^alpha) stays unwrap-valid at the given resolution.

    The steepest per-sample phase step is |alpha*beta|*exp(|alpha|*L)*ds with
    ds = 2L/(num-1); L is chosen by bisection so the step stays within
    ``budget`` (default pi/4, an 8x safety margin against the pi limit).
    """
    a = abs(alpha)
    b = abs(beta)

    def step(L):
        return a * b * np.exp(a * L) * (2.0 * L / (num - 1))

    lo, hi = 0.1, 6.0
    if step(hi) <= budget:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if step(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def sample_oracle(terms, r_grid):
    """Brute-force check: is the product of the phase terms within 1e-9 of 1
    at every radius?

    The grid must have at least 256 points spanning two decades; a generic
    grid of that size catches any nontrivial product.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.size < 256:
        raise InvalidInputError(f"oracle grid needs >= 256 points, got {r.size}")
    if np.any(r <= 0):
        raise InvalidInputError("oracle radii must be positive")
    if float(r.max() / r.min()) < 100.0:
        raise InvalidInputError("oracle grid must span at least two decades")
    total = sum(t.beta * r**t.alpha for t in terms)
    return bool(np.max(np.abs(np.exp(1j * total) - 1.0)) <= 1e-9)


def random_phase_terms(rng):
    """Random term lists (lengths 1-4) on a snapped exponent lattice, with a
    coin flip replacing the draw by an exact cancellation construction
    (labels pair-b, triple-b, triple-c all occur)."""
    lattice = np.arange(-3.0, 3.5, 0.5)
    length = int(rng.integers(1, 5))
    terms = [
        fp.PhaseTerm(
            float(rng.choice(lattice)),
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)),
        )
        for _ in range(length)
    ]
    if rng.random() < 0.5:
        style = int(rng.integers(0, 3))
        nonzero = lattice[lattice != 0.0]
        if style == 0:
            a = float(rng.choice(nonzero))
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
            terms = [fp.PhaseTerm(a, b), fp.PhaseTerm(a, -b)]
        elif style == 1:
            a = float(rng.choice(nonzero))
            b = float(rng.uniform(0.1, 10.0))
            terms = [
                fp.PhaseTerm(0.0, 2.0 * np.pi * int(rng.integers(-3, 4))),
                fp.PhaseTerm(a, b),
                fp.PhaseTerm(a, -b),
            ]
            if terms[0].beta == 0.0:
                terms[0] = fp.PhaseTerm(0.0, 2.0 * np.pi)
        else:
            a = float(rng.choice(nonzero))
            b = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(0.1, 10.0))
            terms = [fp.PhaseTerm(a, b), fp.PhaseTerm(a, c), fp.PhaseTerm(a, -(b + c))]
    return terms


@pytest.fixture(scope="session")
def packet_grid():
    return fp.SpatialGrid(4096, 128.0)


@pytest.fixture(scope="session")
def wide_band():
    return fp.BandSpec(8.0)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list that gains one entry per symbol evaluation made by the
    ``symbols``, ``operators`` and ``semistability`` modules."""
    calls = []
    evaluate = fp.symbols.evaluate

    def counted(spec, xi):
        calls.append(1)
        return evaluate(spec, xi)

    monkeypatch.setattr(fp.symbols, "evaluate", counted)
    monkeypatch.setattr(fp.operators, "evaluate", counted)
    monkeypatch.setattr(fp.semistability, "evaluate", counted)
    return calls
