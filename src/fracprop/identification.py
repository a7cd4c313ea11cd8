"""Recover (alpha, beta) of a power-law phase symbol from a sampled radial
profile and its scaling pair.

Pipeline: lift the sampled values to a continuous phase trace in log-radius,
extract the constant branch integers of the doubling/tripling relations
(which must satisfy N = 2M), shift the trace into the branch-free
representative ``phi1 = phi + 2*pi*M`` (sign-definite for a genuine power
law), and fit ``log|phi1|`` affinely in log-radius after a small moving
average.  The slope is alpha and the intercept gives |beta|.
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
from .symbols import Tabulated, _check_radii, _wrapped_steps

TWO_PI = 2.0 * np.pi


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


def unwrap_phase(s, values, base_value=None, base_index=0, jump_slack=0.05):
    """Lift unit-modulus samples to a continuous real phase.

    The branch is pinned at ``base_index``: the phase there is the principal
    argument moved into ``(base_value - pi, base_value + pi]`` (principal value
    itself when ``base_value`` is None).  Rejects adjacent samples whose
    wrapped increment comes within ``jump_slack`` of pi, naming the offending
    index: such data cannot be unwrapped reliably at this resolution.
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
    bad = np.where(np.abs(wrapped) >= np.pi - jump_slack)[0]
    if bad.size:
        i = int(bad[0])
        raise UnwrapResolutionError(
            f"phase step of {wrapped[i]:+.4f} rad between samples {i} and {i + 1} "
            f"is too close to pi to resolve the branch"
        )
    phi = np.empty_like(raw)
    phi[0] = raw[0]
    np.cumsum(wrapped, out=phi[1:])
    phi[1:] += raw[0]

    anchor = raw[base_index]
    if base_value is not None:
        anchor = anchor + TWO_PI * np.round((float(base_value) - anchor) / TWO_PI)
    phi += anchor - phi[base_index]
    return PhaseTrace(s, phi, base_index)


def _interp_phase(trace, s_query):
    lo, hi = trace.s[0], trace.s[-1]
    if np.any(s_query < lo) or np.any(s_query > hi):
        raise InsufficientDataError("trace does not cover the shifted radii")
    return np.interp(s_query, trace.s, trace.phi)


def _constant_branch(trace, s_pts, log_shift, factor, tol):
    q = (_interp_phase(trace, s_pts + log_shift) - factor * _interp_phase(trace, s_pts)) / TWO_PI
    rounded = np.round(q)
    dev = float(np.max(np.abs(q - rounded)))
    if dev > tol:
        raise BranchInconsistencyError(
            f"branch offsets deviate from integers by {dev:.3g} (> {tol:.3g}); "
            f"the scaling pair is inconsistent with the profile"
        )
    if rounded.max() != rounded.min():
        raise BranchInconsistencyError(
            "branch integer is not constant across radii; the scaling pair is "
            "inconsistent with the profile"
        )
    return int(rounded[0])


def branch_integers(trace, pair, min_points=100, tol=0.01):
    """Constant integers (M, N) with phi(a*r) = 2*phi(r) + 2*pi*M and
    phi(b*r) = 3*phi(r) + 2*pi*N; enforces N = 2M."""
    ln_a = np.log(pair.a)
    ln_b = np.log(pair.b)
    lo = trace.s[0] + max(0.0, -ln_a, -ln_b)
    hi = trace.s[-1] - max(0.0, ln_a, ln_b)
    pts = trace.s[(trace.s >= lo) & (trace.s <= hi)]
    if pts.size < min_points:
        raise InsufficientDataError(
            f"only {pts.size} radii support both scale shifts; need >= {min_points}"
        )
    m = _constant_branch(trace, pts, ln_a, 2.0, tol)
    n = _constant_branch(trace, pts, ln_b, 3.0, tol)
    if n != 2 * m:
        raise BranchInconsistencyError(
            f"branch integers violate N = 2M (got M={m}, N={n}): the profile is "
            f"not semistable for this pair"
        )
    return m, n


def mollified_affine_fit(s, psi, delta):
    """Moving-average smoothing (half-width delta) followed by a least-squares
    affine fit; returns (slope, intercept, max residual of the smoothed data)."""
    s = np.asarray(s, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if s.ndim != 1 or s.shape != psi.shape:
        raise InvalidInputError("s and psi must be matching 1-d arrays")
    if s.size < 16:
        raise InsufficientDataError(f"need >= 16 samples, got {s.size}")
    ds = float(np.mean(np.diff(s)))
    delta = float(delta)
    if delta < ds * (1.0 - 1e-9):
        raise InvalidInputError(f"delta = {delta:.3g} is below the grid spacing {ds:.3g}")
    half = int(np.floor(delta / ds + 1e-9))
    usable = s.size - 2 * half
    if usable < 16:
        raise InsufficientDataError(
            f"only {max(usable, 0)} windows of half-width {half} fit; need >= 16"
        )
    kernel = np.full(2 * half + 1, 1.0 / (2 * half + 1))
    smooth = np.convolve(psi, kernel, mode="valid")
    centers = s[half:s.size - half]
    design = np.column_stack([centers, np.ones_like(centers)])
    (slope, intercept), *_ = np.linalg.lstsq(design, smooth, rcond=None)
    residual = float(np.max(np.abs(smooth - (slope * centers + intercept))))
    return float(slope), float(intercept), residual


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


def identify(profile, pair, tol=1e-9, pair_tol=1e-6, branch_tol=0.01,
             mollifier_widths=8):
    """Recover (alpha, beta) from a tabulated profile known to satisfy the
    scaling relations for ``pair``.

    ``tol`` is both the identity threshold on sup|m - 1| and the final
    reconstruction tolerance; ``pair_tol`` bounds |a**alpha - 2| and
    |b**alpha - 3| for the recovered exponent.  Raises typed errors for the
    failure modes: branch trouble (wrong pair), sign changes of the lifted
    phase (no power law), and reconstruction mismatch.
    """
    if not isinstance(profile, Tabulated):
        raise InvalidInputError("identification needs a tabulated radial profile")

    if float(np.max(np.abs(profile.values - 1.0))) <= tol:
        return IdentificationResult(0.0, 0.0, 0, 0, None, 0.0, None, True)

    _check_radii(profile, profile.r)
    base_index = int(np.argmin(np.abs(profile.s)))
    trace = unwrap_phase(profile.s, profile.values, base_index=base_index)
    m, n = branch_integers(trace, pair, tol=branch_tol)

    phi1 = trace.phi + TWO_PI * m
    lo, hi = float(phi1.min()), float(phi1.max())
    if lo <= 0.0 <= hi or min(abs(lo), abs(hi)) <= 1e-12 * max(abs(lo), abs(hi)):
        raise DegenerateSymbolError(
            "the lifted phase changes sign or touches zero; a nontrivial "
            "power-law profile must be sign-definite"
        )
    sign = 1.0 if lo > 0 else -1.0

    psi = np.log(np.abs(phi1))
    ds = float(np.mean(np.diff(profile.s)))
    alpha, gamma, fit_residual = mollified_affine_fit(
        profile.s, psi, delta=mollifier_widths * ds
    )
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
