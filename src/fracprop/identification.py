"""Recover (alpha, beta) of a power-law phase symbol from a sampled radial
profile and its scaling pair.

Pipeline: pin the table's own lifted phase at the node nearest r = 1, read the
branch integers of the doubling/tripling relations (N = 2M) from the exact
range of its spline that ``check_semistable`` reads too, shift the lift into
the branch-free representative ``phi1 = phi + 2*pi*M`` (sign-definite for a
genuine power law) whose sign is beta's, and fit the phase increments.  For
``beta*r**alpha`` on a log grid of step h the increment after node s_j is
``beta*e**(alpha*s_j)*expm1(alpha*h)``, so ``log|increment|`` is exactly
affine in s_j (the one-exponential case of Prony's method): a
``|increment|``-weighted least-squares line has slope alpha, and its
intercept minus ``log|expm1(alpha*h)|`` is ``log|beta|``.
"""

import numpy as np

from .errors import (
    BranchInconsistencyError,
    DegenerateSymbolError,
    InconsistentPairError,
    InsufficientDataError,
    InvalidInputError,
    ModelMismatchError,
    UnwrapResolutionError,
)
from .symbols import Tabulated, _check_radii, _pp_difference_range, _wrapped_steps

TWO_PI = 2.0 * np.pi
JUMP_SLACK = 0.05  # wrapped steps within this of pi cannot pin the branch
BRANCH_TOL = 0.01  # branch offsets farther than this from an integer refuse the pair
BRANCH_MIN_POINTS = 100  # radii that must support both scale shifts


def unwrap_phase(profile, base_index):
    """The table's lifted phase, moved by whole turns to be the principal
    argument of the sample at ``base_index``, to round-off.

    Raises :class:`UnwrapResolutionError` where a wrapped step comes within
    ``JUMP_SLACK`` of pi, naming its samples (such a step cannot pin the
    branch at this resolution), and then where the sampling does not resolve
    the phase on every radius (``symbols._check_radii``).
    """
    raw = np.angle(profile.values)
    steps = _wrapped_steps(raw)
    bad = np.flatnonzero(np.abs(steps) >= np.pi - JUMP_SLACK)
    if bad.size:
        i = int(bad[0])
        raise UnwrapResolutionError(
            f"phase step of {steps[i]:+.4f} rad between samples {i} and {i + 1} "
            f"is too close to pi to resolve the branch"
        )
    _check_radii(profile, profile.r)
    return profile.phase + (raw[base_index] - profile.phase[base_index])


def branch_integers(profile, pair, pin):
    """Constant integers (M, N) with phi(a*r) = 2*phi(r) + 2*pi*M and
    phi(b*r) = 3*phi(r) + 2*pi*N, for the lift ``phi = P + pin`` of the
    table's spline phase P; enforces N = 2M.

    The window is the span of the ``BRANCH_MIN_POINTS`` or more nodes whose
    shifts by log a and log b stay in the table.  Over it the exact ranges of
    ``P(s + log a) - 2*P(s)`` and ``P(s + log b) - 3*P(s)`` come from one
    ``symbols._pp_difference_range`` pass, as in ``check_semistable``; moved
    by ``(1 - k)*pin`` and divided by 2*pi, both ends of each range must lie
    within ``BRANCH_TOL`` of the same integer.
    """
    shifts, s = np.log([pair.a, pair.b]), profile.s
    pts = s[(s >= s[0] - min(0.0, shifts.min())) & (s <= s[-1] - max(0.0, shifts.max()))]
    if pts.size < BRANCH_MIN_POINTS:
        raise InsufficientDataError(
            f"only {pts.size} radii support both scale shifts; need >= {BRANCH_MIN_POINTS}"
        )
    k = np.array([2.0, 3.0])
    ends = np.stack(_pp_difference_range(s, profile._coef, shifts, k, pts[0], pts[-1]))
    q = (ends + (1.0 - k) * pin) / TWO_PI
    rounded = np.round(q)
    dev = float(np.max(np.abs(q - rounded)))
    if dev > BRANCH_TOL:
        raise BranchInconsistencyError(
            f"branch offsets deviate from integers by {dev:.3g} (> {BRANCH_TOL:.3g}); "
            f"the scaling pair is inconsistent with the profile"
        )
    if np.any(rounded[0] != rounded[1]):
        raise BranchInconsistencyError(
            "branch integer is not constant across radii; the scaling pair is "
            "inconsistent with the profile"
        )
    m, n = (int(x) for x in rounded[0])
    if n != 2 * m:
        raise BranchInconsistencyError(
            f"branch integers violate N = 2M (got M={m}, N={n}): the profile is "
            f"not semistable for this pair"
        )
    return m, n


class IdentificationResult:
    """Recovered parameters plus the diagnostics of the run."""

    __slots__ = ("alpha", "beta", "M", "N", "gamma", "fit_residual",
                 "pair_residuals", "is_identity")

    def __init__(self, alpha, beta, M, N, gamma, fit_residual, pair_residuals,
                 is_identity):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.M = int(M)
        self.N = int(N)
        self.gamma = None if gamma is None else float(gamma)
        self.fit_residual = float(fit_residual)
        self.pair_residuals = (
            None if pair_residuals is None
            else (float(pair_residuals[0]), float(pair_residuals[1]))
        )
        self.is_identity = bool(is_identity)

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "M": self.M,
            "N": self.N,
            "gamma": self.gamma,
            "fit_residual": self.fit_residual,
            "pair_residuals": None if self.pair_residuals is None
            else list(self.pair_residuals),
            "is_identity": self.is_identity,
        }

    def __repr__(self):
        if self.is_identity:
            return "IdentificationResult(identity)"
        return (
            f"IdentificationResult(alpha={self.alpha:.9g}, beta={self.beta:.9g}, "
            f"M={self.M})"
        )


def identify(profile, pair, tol=1e-9, pair_tol=1e-6):
    """Recover (alpha, beta) from a tabulated profile known to satisfy the
    scaling relations for ``pair``.

    ``tol`` is both the identity threshold on sup|m - 1| and the final
    reconstruction tolerance; ``pair_tol`` bounds |a**alpha - 2| and
    |b**alpha - 3| for the recovered exponent.  Both must be finite and
    non-negative: a nan tolerance would accept any profile, and an infinite
    one would call any profile the identity.  The lift is the table's own
    (:func:`unwrap_phase`), and the branch integers come from the exact range
    of its spline (:func:`branch_integers`).  Raises typed errors for the
    failure modes: a phase the sampling does not resolve, branch trouble
    (wrong pair, offsets beyond ``BRANCH_TOL``), sign changes of the lifted
    phase (no power law), and reconstruction mismatch.
    """
    if not isinstance(profile, Tabulated):
        raise InvalidInputError("identification needs a tabulated radial profile")
    for name, value in (("tol", tol), ("pair_tol", pair_tol)):
        if not 0.0 <= value < np.inf:
            raise InvalidInputError(f"tolerance {name} must be finite and >= 0, got {value}")

    if float(np.max(np.abs(profile.values - 1.0))) <= tol:
        return IdentificationResult(0.0, 0.0, 0, 0, None, 0.0, None, True)

    base_index = int(np.argmin(np.abs(profile.s)))
    phi = unwrap_phase(profile, base_index)
    m, n = branch_integers(profile, pair, phi[base_index] - profile.phase[base_index])

    phi1 = phi + TWO_PI * m
    lo, hi = float(phi1.min()), float(phi1.max())
    if lo <= 0.0 <= hi or min(abs(lo), abs(hi)) <= 1e-12 * max(abs(lo), abs(hi)):
        raise DegenerateSymbolError(
            "the lifted phase changes sign or touches zero; a nontrivial "
            "power-law profile must be sign-definite"
        )
    sign = 1.0 if lo > 0 else -1.0

    # |phase step j| = |beta| * e^(alpha*s_j) * |expm1(alpha*h)|: a line in s_j
    mag = np.abs(np.diff(phi))
    keep = mag > 1e-6 * mag.max()
    if np.count_nonzero(keep) < 2:
        raise InconsistentPairError(
            "the lifted phase is flat (fewer than two steps above 1e-6 of the "
            "largest), so its exponent is 0 and no scaling pair doubles it"
        )
    s, w = profile.s[:-1][keep], mag[keep]
    psi = np.log(w)
    s_bar, psi_bar = np.dot(w, s) / w.sum(), np.dot(w, psi) / w.sum()
    alpha = float(np.dot(w * (s - s_bar), psi) / np.dot(w * (s - s_bar), s - s_bar))
    intercept = psi_bar - alpha * s_bar
    fit_residual = float(np.max(np.abs(psi - (alpha * s + intercept))))
    h = (profile.s[-1] - profile.s[0]) / (profile.s.size - 1)
    gamma = float(intercept - np.log(abs(np.expm1(alpha * h))))
    beta = sign * np.exp(gamma)

    pr_a = abs(pair.a**alpha - 2.0)
    pr_b = abs(pair.b**alpha - 3.0)
    if pr_a > pair_tol or pr_b > pair_tol:
        raise InconsistentPairError(
            f"recovered exponent {alpha:.6g} gives pair residuals "
            f"({pr_a:.3g}, {pr_b:.3g}) above {pair_tol:.3g}"
        )

    recon = np.exp(1j * beta * profile.r**alpha)
    recon_err = float(np.max(np.abs(recon - profile.values)))
    if recon_err > tol:
        raise ModelMismatchError(
            f"recovered parameters reproduce the profile only to {recon_err:.3g} "
            f"(tolerance {tol:.3g})"
        )
    return IdentificationResult(alpha, beta, m, n, gamma, fit_residual,
                                (pr_a, pr_b), False)
