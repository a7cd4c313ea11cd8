"""Unimodular radial Fourier symbols and their algebra.

A symbol is one of three immutable specs:

* :class:`ClosedForm`: ``m(xi) = exp(i * beta * |xi|**alpha)``.
* :class:`Tabulated`: a radial profile sampled on a log-uniform grid, evaluated
  by cubic-spline interpolation of the unwrapped phase in log-radius (never of
  the complex values, so unit modulus is preserved and no chord shortcuts occur).
* :class:`SymbolProduct`: a pointwise product of integer powers of other specs.

All evaluation goes through a real phase function, so results are exactly
unimodular up to the rounding of ``exp``.
"""

import numpy as np

from .errors import DomainError, InvalidInputError, SymbolRangeError, UnwrapResolutionError
from .grids import _read_csv_table

# Tabulated radii may be queried this close to the stored endpoints.
_RANGE_SLACK = 1e-12


def _wrapped_steps(raw):
    """Increments of principal phases, wrapped into [-pi, pi)."""
    return np.mod(np.diff(raw) + np.pi, 2.0 * np.pi) - np.pi


def _resolved_nodes(steps):
    """First and last node of the stretch on which the lifted phase is the
    true phase, judged from the wrapped steps.

    Itoh's condition (Appl. Opt. 21, 1982) asks for true steps below pi, which
    wrapped data cannot confirm, but it can show where a smooth phase breaks
    it: where the true step grows past pi the wrapped step changes by 2*pi
    minus the per-sample curvature, while a jump of the profile itself changes
    it by at most pi plus that curvature.  Changes above 3*pi/2 mark such
    crossings, and the stretch kept is the one around the smallest step.
    """
    crossings = np.flatnonzero(np.abs(np.diff(steps)) > 1.5 * np.pi) + 1
    anchor = int(np.argmin(np.abs(steps)))
    below = crossings[crossings <= anchor]
    above = crossings[crossings > anchor]
    return (int(below[-1]) if below.size else 0,
            int(above[0]) if above.size else steps.size)


class ClosedForm:
    """Power-law phase symbol exp(i*beta*|xi|**alpha)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise InvalidInputError("alpha and beta must be finite")
        self.alpha = alpha
        self.beta = beta

    def __eq__(self, other):
        return (
            isinstance(other, ClosedForm)
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((ClosedForm, self.alpha, self.beta))

    def __repr__(self):
        return f"ClosedForm(alpha={self.alpha}, beta={self.beta})"


def _log_radii(r):
    """``log(r)``, after checking that ``r`` is a finite, positive, strictly
    increasing and log-uniform (within 1e-9 relative) radius grid."""
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise InvalidInputError("radii must be finite and positive")
    if np.any(np.diff(r) <= 0):
        raise InvalidInputError("radii must be strictly increasing")
    s = np.log(r)
    ds = np.diff(s)
    step = ds.mean()
    if np.max(np.abs(ds - step)) > 1e-9 * abs(step):
        raise InvalidInputError("radius grid is not log-uniform within 1e-9 relative")
    return s


class Tabulated:
    """Radial profile on a strictly increasing, log-uniform radius grid."""

    __slots__ = ("r", "values", "s", "phase", "_spline", "_nodes", "_resolved")

    def __init__(self, r, values):
        r = np.asarray(r, dtype=float)
        values = np.asarray(values, dtype=complex)
        if r.ndim != 1 or r.shape != values.shape or r.size < 8:
            raise InvalidInputError("need matching 1-d arrays with >= 8 samples")
        s = _log_radii(r)
        mod = np.abs(values)
        if not np.all(np.isfinite(mod)) or np.max(np.abs(mod - 1.0)) > 1e-12:
            raise InvalidInputError("profile values must have unit modulus within 1e-12")
        raw = np.angle(values)
        phase = np.unwrap(raw)
        spline = _not_a_knot_spline(s, phase)
        for arr in (values, phase, spline):
            arr.setflags(write=False)
        self.values = values
        self.phase = phase
        self._spline = spline
        self._set_grid(r, s, _resolved_nodes(_wrapped_steps(raw)))

    def _set_grid(self, r, s, nodes):
        for arr in (r, s):
            arr.setflags(write=False)
        self.r = r
        self.s = s
        self._nodes = nodes
        self._resolved = (float(r[nodes[0]]), float(r[nodes[1]]))

    def _dilated(self, lam):
        """This profile on the radii ``r / lam``.  Only the grid is new: a
        shift in log-radius leaves the phase, its resolved nodes and the
        spline's second derivatives in log-radius as they are."""
        with np.errstate(over="ignore"):  # _log_radii refuses radii that overflow
            r = self.r / lam
        out = object.__new__(Tabulated)
        out.values = self.values
        out.phase = self.phase
        out._spline = self._spline
        out._set_grid(r, _log_radii(r), self._nodes)
        return out

    @property
    def r_min(self):
        return float(self.r[0])

    @property
    def r_max(self):
        return float(self.r[-1])

    def __repr__(self):
        return f"Tabulated(n={self.r.size}, r=[{self.r_min:.4g}, {self.r_max:.4g}])"


class SymbolProduct:
    """Pointwise product of integer powers of symbols (use :func:`combine`)."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    def __repr__(self):
        return f"SymbolProduct({list(self.factors)!r})"


# ---------------------------------------------------------------------------
# Cubic spline (not-a-knot) of the unwrapped phase.  The boundary condition
# keeps O(h^4) accuracy up to the endpoints, which the tabulation fidelity
# contract (1e-9 against the generating closed form at 4096 nodes) requires;
# plain linear interpolation has O(h^2) error several orders too large.

def _not_a_knot_spline(s, y):
    n = s.size
    h = np.diff(s)
    d = 6.0 * np.diff(np.diff(y) / h)
    m = n - 2  # unknowns sigma_1 .. sigma_{n-2}
    lower = h[:-1].copy()
    diag = 2.0 * (h[:-1] + h[1:])
    upper = h[1:].copy()
    r0 = h[0] / h[1]
    diag[0] += h[0] * (1.0 + r0)
    upper[0] -= h[0] * r0
    r1 = h[-1] / h[-2]
    diag[-1] += h[-1] * (1.0 + r1)
    lower[-1] -= h[-1] * r1
    # Thomas elimination, on Python floats: the same IEEE double arithmetic
    # as on numpy scalars, without the cost of indexing them one by one
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), d.tolist()
    for i in range(1, m):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    sig_inner = [0.0] * m
    sig_inner[-1] = rhs[-1] / diag[-1]
    for i in range(m - 2, -1, -1):
        sig_inner[i] = (rhs[i] - upper[i] * sig_inner[i + 1]) / diag[i]
    sig = np.empty(n)
    sig[1:-1] = sig_inner
    sig[0] = sig[1] * (1.0 + r0) - sig[2] * r0
    sig[-1] = sig[-2] * (1.0 + r1) - sig[-3] * r1
    return sig


def _spline_eval(tab, s_query):
    s, y, sig = tab.s, tab.phase, tab._spline
    idx = np.clip(np.searchsorted(s, s_query) - 1, 0, s.size - 2)
    h = s[idx + 1] - s[idx]
    t = s_query - s[idx]
    slope = (y[idx + 1] - y[idx]) / h
    c1 = slope - h * (2.0 * sig[idx] + sig[idx + 1]) / 6.0
    return y[idx] + t * (c1 + t * (0.5 * sig[idx] + t * (sig[idx + 1] - sig[idx]) / (6.0 * h)))


def _tabulated_phase(tab, radius):
    _check_radii(tab, radius)
    return _spline_eval(tab, np.log(radius))


def _check_radii(tab, radius):
    """Refuse radii outside the table, and radii where it is sampled too
    coarsely to unwrap the phase (the resolved stretch lies inside the table,
    so one test covers both on the common path)."""
    lo = tab._resolved[0] * (1.0 - _RANGE_SLACK)
    hi = tab._resolved[1] * (1.0 + _RANGE_SLACK)
    if np.any(radius < lo) or np.any(radius > hi):
        beyond = ((radius < tab.r_min * (1.0 - _RANGE_SLACK))
                  | (radius > tab.r_max * (1.0 + _RANGE_SLACK)))
        if np.any(beyond):
            raise SymbolRangeError(
                f"radius {radius[beyond][0]:.6g} outside tabulated range "
                f"[{tab.r_min:.6g}, {tab.r_max:.6g}]"
            )
        raise UnwrapResolutionError(
            f"radius {radius[(radius < lo) | (radius > hi)][0]:.6g} lies where the "
            f"profile is sampled too coarsely to unwrap its phase; it resolves only "
            f"[{tab._resolved[0]:.6g}, {tab._resolved[1]:.6g}]"
        )


def phase(spec, xi):
    """Real phase of the symbol at frequency ``xi`` (scalar or array); uses |xi|."""
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    radius = np.abs(np.atleast_1d(xi_arr))
    if isinstance(spec, ClosedForm):
        if spec.alpha < 0 and np.any(radius == 0.0):
            raise DomainError("symbol with negative exponent has no value at xi = 0")
        out = spec.beta * radius**spec.alpha
    elif isinstance(spec, Tabulated):
        out = _tabulated_phase(spec, radius)
    elif isinstance(spec, SymbolProduct):
        out = np.zeros_like(radius)
        for sub, power in spec.factors:
            out += power * phase(sub, radius)
    else:
        raise InvalidInputError(f"not a multiplier spec: {spec!r}")
    return float(out[0]) if scalar else out


def evaluate(spec, xi):
    """Unimodular symbol value(s) exp(i*phase) at ``xi``; symmetric in xi -> -xi."""
    return np.exp(1j * phase(spec, xi))


def dilate(spec, lam):
    """The rescaled symbol ``xi -> m(lam * xi)``.

    Exact for closed forms: (alpha, beta) -> (alpha, beta * lam**alpha).  For
    tabulated profiles the radius grid divides by ``lam``, which moves the
    evaluable range accordingly.  That is an exact shift in log-radius, so the
    result reuses the parent's unwrapped phase and spline; only the new radii
    are computed and checked.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise DomainError(f"dilation factor must be positive, got {lam}")
    if isinstance(spec, ClosedForm):
        return ClosedForm(spec.alpha, spec.beta * lam**spec.alpha)
    if isinstance(spec, Tabulated):
        if lam == 1.0:
            return spec
        return spec._dilated(lam)
    if isinstance(spec, SymbolProduct):
        return SymbolProduct([(dilate(sub, lam), p) for sub, p in spec.factors])
    raise InvalidInputError(f"not a multiplier spec: {spec!r}")


def combine(terms):
    """Pointwise product of powered symbols, e.g. ``combine([(m, 2), (w, -1)])``.

    Negative powers are unimodular inverses (conjugates).  Closed forms with a
    common exponent fold into a single closed form, so cancellation is exact.
    """
    factors = []
    for spec, power in terms:
        if power != int(power):
            raise InvalidInputError(f"powers must be integers, got {power}")
        factors.append((spec, int(power)))
    if all(isinstance(s, ClosedForm) for s, _ in factors):
        alphas = {s.alpha for s, p in factors if p != 0 and s.beta != 0.0}
        if len(alphas) <= 1:
            alpha = alphas.pop() if alphas else 0.0
            beta = float(sum(s.beta * p for s, p in factors))
            return ClosedForm(alpha, beta)
    tabs = [s for s, _ in factors if isinstance(s, Tabulated)]
    if tabs:
        lo = max(t.r_min for t in tabs)
        hi = min(t.r_max for t in tabs)
        if lo >= hi:
            raise SymbolRangeError("tabulated factors have no common radius range")
    return SymbolProduct(factors)


def tabulate(spec, r_min, r_max, num=4096):
    """Sample a symbol into a :class:`Tabulated` profile on a log-uniform grid."""
    if not (0 < r_min < r_max):
        raise InvalidInputError("need 0 < r_min < r_max")
    r = np.exp(np.linspace(np.log(r_min), np.log(r_max), int(num)))
    return Tabulated(r, evaluate(spec, r))


# ---------------------------------------------------------------------------
# Band sup distance: sup over the annulus of |m1 - m2|.  On band-limited
# signals this equals the operator norm of the difference of the two
# multiplier operators, which is what the probing tests cross-check.

# Points per bracket in each round of the polish.  A round narrows every
# bracket to the argmax's two neighbours, 2/64 of its width, so a bracket of
# two scan steps (6.8e-4 in log-radius on BandSpec(2)) reaches 1e-10 in five
# rounds.
_ZOOM_POINTS = 65


def _zoom_max(m1, m2, lo, hi, tol=1e-10):
    """Maximize |m1 - m2| over the log-radius brackets ``[lo[j], hi[j]]``.

    Each round evaluates both symbols once, on a ``(k, _ZOOM_POINTS)`` grid
    that spans all k brackets, and narrows each bracket to the neighbours of
    its argmax; it stops when every bracket is within ``tol``.  Returns the
    log-radius and the value of each bracket's maximum.
    """
    rows = np.arange(np.size(lo))
    while True:
        s = np.linspace(lo, hi, _ZOOM_POINTS, axis=-1)
        r = np.exp(s)
        d = np.abs(evaluate(m1, r) - evaluate(m2, r))
        i = np.argmax(d, axis=-1)
        lo = s[rows, np.maximum(i - 1, 0)]
        hi = s[rows, np.minimum(i + 1, _ZOOM_POINTS - 1)]
        if np.all(hi - lo <= tol):
            return s[rows, i], d[rows, i]


def _sup_distance_with_argmax(m1, m2, band, samples):
    s_lo, s_hi = -np.log(band.R), np.log(band.R)
    s = np.linspace(s_lo, s_hi, samples)
    r = np.exp(s)
    d = np.abs(evaluate(m1, r) - evaluate(m2, r))
    i = int(np.argmax(d))
    s_best, polished = _zoom_max(m1, m2, s[[max(i - 1, 0)]], s[[min(i + 1, samples - 1)]])
    if polished[0] >= d[i]:
        return float(polished[0]), float(np.exp(s_best[0]))
    return float(d[i]), float(r[i])


def band_sup_distance(m1, m2, band, samples=4096):
    """Max of |m1(r) - m2(r)| over R**-1 <= r <= R.

    Exact for two closed forms with one exponent: their ratio is a single
    power-law phase, whose sup has a closed form.  Otherwise a dense log grid
    locates the maximum and a bracket zoom refines it to ~1e-10 in the
    log-radius.  Equals the operator norm of the difference restricted to the
    band.
    """
    samples = int(samples)
    if samples < 1024:
        raise InvalidInputError(f"need at least 1024 samples, got {samples}")
    if isinstance(m1, ClosedForm) and isinstance(m2, ClosedForm) and m1.alpha == m2.alpha:
        return _power_phase_chord_sup(m1.beta - m2.beta, m1.alpha, 1.0 / band.R, band.R)
    value, _ = _sup_distance_with_argmax(m1, m2, band, samples)
    return value


# ---------------------------------------------------------------------------
# Local uniform continuity: modulus of the symbol under small log-scale shifts.

class ContinuityReport:
    """Sampled modulus of continuity under dilation and a heuristic flag."""

    __slots__ = ("eps", "omega", "luc_flag", "threshold")

    def __init__(self, eps, omega, luc_flag, threshold):
        eps = np.asarray(eps, dtype=float)
        omega = np.asarray(omega, dtype=float)
        eps.setflags(write=False)
        omega.setflags(write=False)
        self.eps = eps
        self.omega = omega
        self.luc_flag = bool(luc_flag)
        self.threshold = float(threshold)

    def __repr__(self):
        return (
            f"ContinuityReport(omega_min={self.omega[0]:.3g}, "
            f"threshold={self.threshold:.3g}, luc={self.luc_flag})"
        )


def _phase_slope_bound(spec, band, eps_max, samples=4096):
    lo = np.log(1.0 / band.R) - eps_max
    hi = np.log(band.R) + eps_max
    s = np.linspace(lo, hi, samples)
    ph = phase(spec, np.exp(s))
    return float(np.max(np.abs(np.diff(ph))) / (s[1] - s[0]))


def continuity_modulus(spec, band, eps_grid, luc_threshold=None, samples=4096):
    """omega(eps) = sup over |log lam| <= eps of the band sup distance between
    the rescaled and original symbol, sampled at the grid epsilons.

    The flag compares omega at the smallest epsilon against a slope-based
    threshold (clipped to [1e-6, 1]); it detects discontinuity, it does not
    prove continuity.
    """
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    if eps.size == 0 or np.any(eps < 0):
        raise InvalidInputError("eps grid must be non-negative")
    omega = np.empty(eps.size)
    running = 0.0
    for j, e in enumerate(eps):
        if e == 0.0:
            omega[j] = running
            continue
        d_up = band_sup_distance(dilate(spec, float(np.exp(e))), spec, band, samples)
        d_dn = band_sup_distance(dilate(spec, float(np.exp(-e))), spec, band, samples)
        running = max(running, d_up, d_dn)
        omega[j] = running
    if luc_threshold is None:
        slope = _phase_slope_bound(spec, band, float(eps[-1]), samples)
        smallest = eps[eps > 0][0] if np.any(eps > 0) else 0.0
        luc_threshold = min(max(10.0 * smallest * slope, 1e-6), 1.0)
    return ContinuityReport(eps, omega, omega[0] <= luc_threshold, luc_threshold)


# ---------------------------------------------------------------------------
# Tabulated symbol file format: CSV with header "r,re,im".

def save_symbol_csv(path, tab):
    if not isinstance(tab, Tabulated):
        raise InvalidInputError("can only save tabulated profiles")
    lines = ["r,re,im"]
    for r, v in zip(tab.r, tab.values):
        lines.append(f"{r:.17g},{v.real:.17g},{v.imag:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_symbol_csv(path):
    """Load a tabulated profile; rejects non-log-uniform grids and off-circle
    values (|value| - 1 beyond 1e-9), renormalizing the rest onto the circle."""
    data = _read_csv_table(path, "r,re,im", "symbol")
    vals = data[:, 1] + 1j * data[:, 2]
    mod = np.abs(vals)
    if np.max(np.abs(mod - 1.0)) > 1e-9:
        raise InvalidInputError("symbol values deviate from unit modulus by more than 1e-9")
    return Tabulated(data[:, 0], vals / mod)


# ---------------------------------------------------------------------------
# Shared helpers: exact sup of |exp(i*c*r^alpha) - 1| over a radius interval.
# The phase c*r^alpha is monotone in r, so the sup is 2 as soon as the phase
# interval contains an odd multiple of pi, and an endpoint value otherwise.

_EPS = np.finfo(float).eps
# A stored double can satisfy lam**alpha == target only to a few ulps; a
# coefficient difference within this distance is indistinguishable from exact
# and treated as such, otherwise the residual would be dominated by
# representation error rather than by any property of the symbol.  A 1%
# perturbation sits ~13 orders of magnitude above the snap.
_SNAP_ULPS = 64


def _snapped_chord_sup(diff, scale, alpha, r_lo, r_hi, gain=1.0):
    """``_power_phase_chord_sup(gain * diff, alpha, r_lo, r_hi)``, with a
    difference ``diff`` of coefficients of size ``scale`` taken as zero when it
    is within _SNAP_ULPS ulps of that size."""
    if abs(diff) <= _SNAP_ULPS * _EPS * scale:
        return 0.0
    return _power_phase_chord_sup(gain * diff, alpha, r_lo, r_hi)


def _power_phase_chord_sup(coef, alpha, r_lo, r_hi):
    if coef == 0.0:
        return 0.0
    th1 = coef * r_lo**alpha
    th2 = coef * r_hi**alpha
    lo, hi = (th1, th2) if th1 <= th2 else (th2, th1)
    if hi - lo >= 2.0 * np.pi:
        return 2.0
    k = int(np.ceil(lo / np.pi))
    if k % 2 == 0:
        k += 1
    if k * np.pi <= hi:
        return 2.0
    return 2.0 * max(abs(np.sin(lo / 2.0)), abs(np.sin(hi / 2.0)))
