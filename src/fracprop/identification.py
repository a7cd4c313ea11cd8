"""Recover (alpha, beta) of a power-law phase symbol from a sampled radial
profile and its scaling pair.

Pipeline: lift the sampled values to a continuous phase trace in log-radius,
extract the constant branch integers of the doubling/tripling relations
(which must satisfy N = 2M), shift the trace into the branch-free
representative ``phi1 = phi + 2*pi*M`` (sign-definite for a genuine power
law) whose sign is beta's, and fit the phase increments.  For
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
from .symbols import Tabulated, _check_radii, _resolved_nodes, _wrapped_steps

TWO_PI = 2.0 * np.pi
JUMP_SLACK = 0.05  # wrapped steps within this of pi cannot pin the branch
BRANCH_TOL = 0.01  # branch offsets farther than this from an integer refuse the pair
BRANCH_MIN_POINTS = 100  # radii that must support both scale shifts


class PhaseTrace:
    """Continuous unwrapped phase on a log-radius grid."""

    __slots__ = ("s", "phi", "base_index")

    def __init__(self, s, phi, base_index):
        s = np.asarray(s, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if s.shape != phi.shape or s.ndim != 1:
            raise InvalidInputError("s and phi must be matching 1-d arrays")
        s.setflags(write=False)
        phi.setflags(write=False)
        self.s = s
        self.phi = phi
        self.base_index = int(base_index)

    def __repr__(self):
        return f"PhaseTrace(n={self.s.size}, base_index={self.base_index})"


def unwrap_phase(s, values, base_index=0):
    """Lift unit-modulus samples to a continuous real phase.

    The branch is pinned at ``base_index``: the phase there is the principal
    argument of that sample, to round-off.  Rejects adjacent samples whose
    wrapped increment comes within ``JUMP_SLACK`` of pi, naming the offending
    index: such data cannot be unwrapped reliably at this resolution.  Also
    rejects data whose true phase step grows past pi: the wrapped steps show
    that only as a change of nearly 2*pi from one step to the next (see
    ``symbols._resolved_nodes``), and the error names the sample where it
    happens.
    """
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=complex)
    if s.ndim != 1 or s.shape != values.shape or s.size < 2:
        raise InvalidInputError("need matching 1-d arrays with >= 2 samples")
    if np.any(np.diff(s) <= 0):
        raise InvalidInputError("s grid must be strictly increasing")
    if np.max(np.abs(np.abs(values) - 1.0)) > 1e-9:
        raise InvalidInputError("samples must lie on the unit circle within 1e-9")
    base_index = int(base_index)
    if not 0 <= base_index < s.size:
        raise InvalidInputError(f"base index {base_index} out of range")

    raw = np.angle(values)
    wrapped = _wrapped_steps(raw)
    bad = np.where(np.abs(wrapped) >= np.pi - JUMP_SLACK)[0]
    if bad.size:
        i = int(bad[0])
        raise UnwrapResolutionError(
            f"phase step of {wrapped[i]:+.4f} rad between samples {i} and {i + 1} "
            f"is too close to pi to resolve the branch"
        )
    lo, hi = _resolved_nodes(wrapped)
    if lo > 0 or hi < wrapped.size:
        raise UnwrapResolutionError(
            f"phase steps pass pi at sample {lo if lo > 0 else hi}, where "
            f"neighbouring wrapped steps differ by more than 3*pi/2; only samples "
            f"{lo} to {hi} can be unwrapped"
        )
    phi = np.empty_like(raw)
    phi[0] = raw[0]
    np.cumsum(wrapped, out=phi[1:])
    phi[1:] += raw[0]

    phi += raw[base_index] - phi[base_index]
    return PhaseTrace(s, phi, base_index)


def _interp_phase(trace, s_query):
    lo, hi = trace.s[0], trace.s[-1]
    if np.any(s_query < lo) or np.any(s_query > hi):
        raise InsufficientDataError("trace does not cover the shifted radii")
    return np.interp(s_query, trace.s, trace.phi)


def _constant_branch(trace, s_pts, log_shift, factor):
    q = (_interp_phase(trace, s_pts + log_shift) - factor * _interp_phase(trace, s_pts)) / TWO_PI
    rounded = np.round(q)
    dev = float(np.max(np.abs(q - rounded)))
    if dev > BRANCH_TOL:
        raise BranchInconsistencyError(
            f"branch offsets deviate from integers by {dev:.3g} (> {BRANCH_TOL:.3g}); "
            f"the scaling pair is inconsistent with the profile"
        )
    if rounded.max() != rounded.min():
        raise BranchInconsistencyError(
            "branch integer is not constant across radii; the scaling pair is "
            "inconsistent with the profile"
        )
    return int(rounded[0])


def branch_integers(trace, pair):
    """Constant integers (M, N) with phi(a*r) = 2*phi(r) + 2*pi*M and
    phi(b*r) = 3*phi(r) + 2*pi*N, read on the ``BRANCH_MIN_POINTS`` or more
    radii whose shifts stay in the trace, each within ``BRANCH_TOL`` of the
    same integer; enforces N = 2M."""
    ln_a = np.log(pair.a)
    ln_b = np.log(pair.b)
    lo = trace.s[0] + max(0.0, -ln_a, -ln_b)
    hi = trace.s[-1] - max(0.0, ln_a, ln_b)
    pts = trace.s[(trace.s >= lo) & (trace.s <= hi)]
    if pts.size < BRANCH_MIN_POINTS:
        raise InsufficientDataError(
            f"only {pts.size} radii support both scale shifts; need >= {BRANCH_MIN_POINTS}"
        )
    m = _constant_branch(trace, pts, ln_a, 2.0)
    n = _constant_branch(trace, pts, ln_b, 3.0)
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
    one would call any profile the identity.  Raises typed errors for the
    failure modes: branch trouble (wrong pair, offsets beyond ``BRANCH_TOL``),
    sign changes of the lifted phase (no power law), and reconstruction
    mismatch.
    """
    if not isinstance(profile, Tabulated):
        raise InvalidInputError("identification needs a tabulated radial profile")
    for name, value in (("tol", tol), ("pair_tol", pair_tol)):
        if not 0.0 <= value < np.inf:
            raise InvalidInputError(f"tolerance {name} must be finite and >= 0, got {value}")

    if float(np.max(np.abs(profile.values - 1.0))) <= tol:
        return IdentificationResult(0.0, 0.0, 0, 0, None, 0.0, None, True)

    _check_radii(profile, profile.r)
    base_index = int(np.argmin(np.abs(profile.s)))
    trace = unwrap_phase(profile.s, profile.values, base_index=base_index)
    m, n = branch_integers(trace, pair)

    phi1 = trace.phi + TWO_PI * m
    lo, hi = float(phi1.min()), float(phi1.max())
    if lo <= 0.0 <= hi or min(abs(lo), abs(hi)) <= 1e-12 * max(abs(lo), abs(hi)):
        raise DegenerateSymbolError(
            "the lifted phase changes sign or touches zero; a nontrivial "
            "power-law profile must be sign-definite"
        )
    sign = 1.0 if lo > 0 else -1.0

    # |phase step j| = |beta| * e^(alpha*s_j) * |expm1(alpha*h)|: a line in s_j
    mag = np.abs(np.diff(trace.phi))
    keep = mag > 1e-6 * mag.max()
    if np.count_nonzero(keep) < 2:
        raise InconsistentPairError(
            "the lifted phase is flat (fewer than two steps above 1e-6 of the "
            "largest), so its exponent is 0 and no scaling pair doubles it"
        )
    s, w = trace.s[:-1][keep], mag[keep]
    psi = np.log(w)
    s_bar, psi_bar = np.dot(w, s) / w.sum(), np.dot(w, psi) / w.sum()
    alpha = float(np.dot(w * (s - s_bar), psi) / np.dot(w * (s - s_bar), s - s_bar))
    intercept = psi_bar - alpha * s_bar
    fit_residual = float(np.max(np.abs(psi - (alpha * s + intercept))))
    h = (trace.s[-1] - trace.s[0]) / (trace.s.size - 1)
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
