"""Unimodular radial Fourier symbols and their algebra.

A symbol is one of two immutable specs:

* :class:`ClosedForm`: ``m(xi) = exp(i * beta * |xi|**alpha)``.
* :class:`Tabulated`: a radial profile sampled on a log-uniform grid, evaluated
  by cubic-spline interpolation of the unwrapped phase in log-radius (never of
  the complex values, so unit modulus is preserved and no chord shortcuts occur).
  The phase is lifted once, as the first principal argument plus the running
  sum of the wrapped steps; it and the spline's per-interval polynomial
  coefficients are stored with the table.

All evaluation goes through a real phase function, so results are exactly
unimodular up to the rounding of ``exp``.
"""

import numpy as np

from .errors import DomainError, InvalidInputError, SymbolRangeError, UnwrapResolutionError
from .grids import _file_bytes, _read_csv_table, _write_csv_table

# Tabulated radii may be queried this close to the stored endpoints.
_RANGE_SLACK = 1e-12

# The window [e^-3, e^3] of the scaling, order and rescaling checks and the
# exponent-product witness, on 4096 log-uniform radii: an exponent mismatch
# of 1e-3 yields a residual >= 1e-2 there for |beta| >= 0.1.  Closed-form
# checks read only its ends.
CHECK_RADII = np.exp(np.linspace(-3.0, 3.0, 4096))
CHECK_RADII.setflags(write=False)


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

    __slots__ = ("r", "values", "s", "phase", "_coef", "_resolved")

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
        steps = _wrapped_steps(raw)
        phase = np.concatenate([raw[:1], raw[0] + np.cumsum(steps)])
        coef = _cubic_coefficients(s, phase, _not_a_knot_spline(s, phase))
        for arr in (r, values, s, phase, coef):
            arr.setflags(write=False)
        self.r = r
        self.values = values
        self.s = s
        self.phase = phase
        self._coef = coef
        lo, hi = _resolved_nodes(steps)
        self._resolved = (float(r[lo]), float(r[hi]))

    @property
    def r_min(self):
        return float(self.r[0])

    @property
    def r_max(self):
        return float(self.r[-1])

    def __repr__(self):
        return f"Tabulated(n={self.r.size}, r=[{self.r_min:.4g}, {self.r_max:.4g}])"


# ---------------------------------------------------------------------------
# Cubic spline (not-a-knot) of the unwrapped phase.  The boundary condition
# keeps O(h^4) accuracy up to the endpoints, which the tabulation fidelity
# contract (1e-9 against the generating closed form at 4096 nodes) requires;
# plain linear interpolation has O(h^2) error several orders too large.

def _not_a_knot_spline(s, y):
    """Second derivatives ``sigma`` of the not-a-knot cubic spline through
    ``(s, y)``.

    The end conditions eliminate ``sigma_0`` and ``sigma_{n-1}``, leaving a
    tridiagonal system in ``sigma_1 .. sigma_{n-2}``.  It is solved directly by
    cyclic reduction (Buzbee, Golub and Nielson, 1970) in about log2(n)
    vectorized levels: the system is padded with identity rows to
    ``2**k - 1`` unknowns, each level eliminates every other unknown from its
    neighbours' rows, and back-substitution recovers them level by level.
    Every row is strictly diagonally dominant for positive steps (the end rows
    too: ``3h_0 + 2h_1 + h_0**2/h_1 > |h_1 - h_0**2/h_1|``), and cyclic
    reduction keeps that dominance from level to level, so no pivoting is
    needed (Heller, 1976).
    """
    n = s.size
    h = np.diff(s)
    m = n - 2  # unknowns sigma_1 .. sigma_{n-2}
    size = (1 << m.bit_length()) - 1
    # row i: -lower_i*x_{i-1} + diag_i*x_i - upper_i*x_{i+1} = rhs_i
    lower = np.zeros(size)
    diag = np.ones(size)
    upper = np.zeros(size)
    rhs = np.zeros(size)
    lower[1:m] = -h[1:-1]
    diag[:m] = 2.0 * (h[:-1] + h[1:])
    upper[:m - 1] = -h[1:-1]
    rhs[:m] = 6.0 * np.diff(np.diff(y) / h)
    r0 = h[0] / h[1]
    diag[0] += h[0] * (1.0 + r0)
    upper[0] += h[0] * r0
    r1 = h[-1] / h[-2]
    diag[m - 1] += h[-1] * (1.0 + r1)
    lower[m - 1] += h[-1] * r1
    levels = []
    while diag.size > 1:
        levels.append((lower, diag, upper, rhs))
        wl = lower[1::2] / diag[:-1:2]
        wu = upper[1::2] / diag[2::2]
        lower, diag, upper, rhs = (wl * lower[:-1:2],
                                   diag[1::2] - wl * upper[:-1:2] - wu * lower[2::2],
                                   wu * upper[2::2],
                                   rhs[1::2] + wl * rhs[:-1:2] + wu * rhs[2::2])
    x = rhs / diag
    for lower, diag, upper, rhs in reversed(levels):
        full = np.zeros(diag.size + 2)  # this level's unknowns, zero past both ends
        full[2:-1:2] = x
        full[1:-1:2] = (rhs[::2] + lower[::2] * full[:-2:2] + upper[::2] * full[2::2]) / diag[::2]
        x = full[1:-1]
    sig = np.empty(n)
    sig[1:-1] = x[:m]
    sig[0] = sig[1] * (1.0 + r0) - sig[2] * r0
    sig[-1] = sig[-2] * (1.0 + r1) - sig[-3] * r1
    return sig


def _cubic_coefficients(s, y, sig):
    """C-contiguous ``(4, n-1)`` rows ``y_i``, ``c1_i``, ``sigma_i / 2`` and
    ``(sigma_{i+1} - sigma_i) / (6 h_i)``: on ``[s_i, s_{i+1}]`` the spline is
    ``y_i + t*(c1_i + t*(c2_i + t*c3_i))`` with ``t = s - s_i`` (the
    piecewise-polynomial form).  One row per coefficient lets a query gather
    each from one contiguous array."""
    h = np.diff(s)
    c1 = np.diff(y) / h - h * (2.0 * sig[:-1] + sig[1:]) / 6.0
    return np.stack([y[:-1], c1, 0.5 * sig[:-1], np.diff(sig) / (6.0 * h)])


def _spline_intervals(s, s_query):
    """Index of the grid interval holding each log-radius in ``s_query``:
    ``clip(searchsorted(s, q) - 1, 0, n - 2)``, so a query on a node takes the
    interval to its left and queries past either end take the end interval.

    The index comes from the log-uniform step, ``floor((q - s_0) / step)``,
    moved by one node where a comparison with the nodes disagrees: the grid is
    uniform within 1e-9 relative, so the estimate is off by at most one.
    """
    last = s.size - 2
    step = (s[-1] - s[0]) / (last + 1)
    idx = np.clip((s_query - s[0]) / step, 0, last).astype(np.intp)
    idx -= (np.take(s, idx) >= s_query) & (idx > 0)
    idx += (np.take(s, idx + 1) < s_query) & (idx < last)
    return idx


def _spline_eval(tab, s_query):
    """The spline at the log-radii ``s_query`` (any shape), from the stored
    interval polynomials of :func:`_cubic_coefficients`."""
    idx = _spline_intervals(tab.s, s_query)
    y, c1, c2, c3 = np.take(tab._coef, idx, axis=1)
    t = s_query - np.take(tab.s, idx)
    return y + t * (c1 + t * (c2 + t * c3))


def _pp_difference_range(s, coef, shift, k, s_lo, s_hi):
    """``(min, max)`` of ``D(x) = Q(x + shift) - k*Q(x)`` over ``[s_lo, s_hi]``,
    exact up to rounding, where ``Q`` is the piecewise cubic with nodes ``s``
    and the rows ``coef`` of :func:`_cubic_coefficients` (pp-form; de Boor,
    *A Practical Guide to Splines*, 2001).  ``shift`` and ``k`` are numbers
    or 1-d arrays that broadcast together; one minimum and one maximum is
    returned per shift, as arrays.

    ``D`` is cubic between the nodes and the nodes moved by ``-shift``.  The
    grid is log-uniform, so each interval holds one moved node, found by the
    index arithmetic of :func:`_spline_intervals`, and is cut there once.  On
    each piece the range of ``D`` comes from its ends and the real roots of
    its derivative's quadratic, taken by the stable formula
    ``q = -(b + sign(b)*sqrt(b*b - 4ac))/2``, roots ``q/a`` and ``c/q``.
    """
    shift = np.asarray(shift, dtype=float).reshape(-1, 1)
    k = np.asarray(k, dtype=float).reshape(-1, 1, 1)
    last = s.size - 2
    first, final = _spline_intervals(s, np.array([s_lo, s_hi]))
    node = s[first:final + 1]
    lo = node.copy()
    lo[0] = s_lo
    hi = s[first + 1:final + 2].copy()
    hi[-1] = s_hi
    moved = _spline_intervals(s, lo + shift)
    cut = np.clip(s[moved + 1] - shift, lo, hi)
    # [:, 0]: D on [lo, cut], where Q(x + shift) reads interval `moved`;
    # [:, 1]: D on [cut, hi], where it reads the next, unless the piece is
    # empty (the window ends before the moved node).  Both are cubics in
    # u = x - node, the variable of the interval Q(x) reads, with the rows
    # d0..d3 of D = d0 + u*(d1 + u*(d2 + u*d3)).
    moved = np.stack([moved, np.minimum(moved + (cut < hi), last)], axis=1)
    # the large arrays are updated in place: at these sizes a fresh
    # temporary costs about as much to allocate as to compute
    d = np.take(coef, moved, axis=1)
    tau = node + shift[:, None] - np.take(s, moved)
    # Q(x + shift) is the cubic of interval `moved` at u + tau: re-expand it
    # in powers of u (a Taylor shift by synthetic division)
    for i in range(3):
        for j in range(2, i - 1, -1):
            d[j] += tau * d[j + 1]
    d -= k * coef[:, None, None, first:final + 1]
    d0, d1, d2, d3 = d
    start = np.stack([np.broadcast_to(lo, cut.shape), cut], axis=1) - node
    end = np.stack([cut, np.broadcast_to(hi, cut.shape)], axis=1) - node
    # D' = d1 + 2*d2*u + 3*d3*u**2; a root off the piece (or none, nan) is
    # moved to the piece's nearer end
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 3.0 * d3
        q = -(d2 + np.copysign(np.sqrt(d2 * d2 - a * d1), d2))
        roots = (np.divide(q, a, out=a), np.divide(d1, q, out=q))
    # the pieces' starts are every breakpoint but the window's right end
    x = end[:, 1, -1]
    right = d0[:, 1, -1] + x * (d1[:, 1, -1] + x * (d2[:, 1, -1] + x * d3[:, 1, -1]))
    lows, highs = [right], [right]
    for u in (start, *(np.fmax(start, np.fmin(root, end, out=root), out=root) for root in roots)):
        value = d3 * u
        for c in (d2, d1):
            value += c
            value *= u
        value += d0
        lows.append(value.min(axis=(1, 2)))
        highs.append(value.max(axis=(1, 2)))
    return np.min(lows, axis=0), np.max(highs, axis=0)


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
    if not np.all(np.isfinite(radius)):
        raise InvalidInputError("frequencies must be finite")
    if isinstance(spec, ClosedForm):
        if spec.alpha < 0 and np.any(radius == 0.0):
            raise DomainError("symbol with negative exponent has no value at xi = 0")
        out = _closed_form_phase(spec, radius)
    elif isinstance(spec, Tabulated):
        out = _tabulated_phase(spec, radius)
    else:
        raise InvalidInputError(f"not a multiplier spec: {spec!r}")
    return float(out[0]) if scalar else out


def _closed_form_phase(spec, radius):
    """beta * radius**alpha; DomainError naming the phase and the radius
    where it overflows."""
    with np.errstate(over="raise"):
        try:
            return spec.beta * radius**spec.alpha
        except FloatingPointError:
            r = radius.max() if spec.alpha > 0 else radius.min()
            raise DomainError(f"phase {spec.beta:.6g}*|xi|**{spec.alpha:.6g} "
                              f"overflows at |xi| = {r:.6g}") from None


def _float_power(base, exponent, name):
    """``base**exponent`` for a positive float ``base``; a result outside the
    float range raises DomainError naming the quantity ``name``, not a bare
    OverflowError or a silent 0."""
    try:
        out = base**exponent
    except OverflowError:
        raise DomainError(f"{name} = {base:.6g}**{exponent:.6g} overflows") from None
    if out == 0.0:
        raise DomainError(f"{name} = {base:.6g}**{exponent:.6g} underflows to 0")
    return out


def evaluate(spec, xi):
    """Unimodular symbol value(s) exp(i*phase) at ``xi``; symmetric in xi -> -xi."""
    return np.exp(1j * phase(spec, xi))


def dilate(spec, lam):
    """The rescaled symbol ``xi -> m(lam * xi)``.

    Exact for closed forms: (alpha, beta) -> (alpha, beta * lam**alpha).  A
    tabulated profile is built again, with the same values on the radii
    ``r / lam``, which moves the evaluable range accordingly.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise DomainError(f"dilation factor must be positive, got {lam}")
    if isinstance(spec, ClosedForm):
        return ClosedForm(spec.alpha,
                          spec.beta * _float_power(lam, spec.alpha, "dilation power lam**alpha"))
    if isinstance(spec, Tabulated):
        if lam == 1.0:
            return spec
        with np.errstate(over="ignore"):  # Tabulated refuses radii that overflow
            r = spec.r / lam
        return Tabulated(r, spec.values)
    raise InvalidInputError(f"not a multiplier spec: {spec!r}")


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

def band_sup_distance(m1, m2, band):
    """Max of |m1(r) - m2(r)| over R**-1 <= r <= R, exact up to rounding:
    the operator norm of the difference restricted to the band.

    The distance is 2|sin(g/2)| for the phase difference g, so the sup comes
    from the range of g, read for two closed forms at the band's ends and the
    one radius where g can be stationary.  A pair with a table has no exact
    range and raises DomainError, once each table is checked to hold the
    band.
    """
    if isinstance(m1, ClosedForm) and isinstance(m2, ClosedForm):
        if m1.alpha == m2.alpha:
            return _power_phase_chord_sup(m1.beta - m2.beta, m1.alpha, 1.0 / band.R, band.R)
        return _chord_sup(*_two_power_range(m1, m2, band.R))
    for m in (m1, m2):
        if isinstance(m, Tabulated):
            _check_radii(m, np.array([1.0 / band.R, band.R]))
        elif not isinstance(m, ClosedForm):
            raise InvalidInputError(f"not a multiplier spec: {m!r}")
    raise DomainError(f"no exact band sup distance between {m1!r} and {m2!r}: "
                      f"only two closed forms have one")


def _two_power_range(m1, m2, R):
    """``(min, max)`` over ``[1/R, R]`` of ``g = b1*r**a1 - b2*r**a2``,
    ``a1 != a2``, whose derivative vanishes only where
    ``(a1 - a2)*log r = log(a2*b2 / (a1*b1))``.  That log is a difference of
    logs, compared with ``log R`` before it is divided or exponentiated, so
    no ratio or power leaves the float range."""
    radii = [1.0 / R, R]
    factors = np.array([m1.alpha, m1.beta, m2.alpha, m2.beta])
    gap, s_band = m1.alpha - m2.alpha, np.log(R)
    if np.prod(np.sign(factors)) > 0:
        logs = np.log(np.abs(factors))
        log_ratio = logs[2] + logs[3] - logs[0] - logs[1]
        if abs(log_ratio) <= s_band * abs(gap):
            radii.append(np.exp(np.clip(log_ratio / gap, -s_band, s_band)))
    radii = np.array(radii)
    with np.errstate(over="ignore"):
        g = _closed_form_phase(m1, radii) - _closed_form_phase(m2, radii)
    if not np.all(np.isfinite(g)):
        raise DomainError(f"phase difference {m1.beta:.6g}*r**{m1.alpha:.6g} - "
                          f"({m2.beta:.6g})*r**{m2.alpha:.6g} overflows on [{radii[0]:.6g}, {R:.6g}]")
    return float(g.min()), float(g.max())


# ---------------------------------------------------------------------------
# Local uniform continuity: modulus of the symbol under small log-scale shifts.

class ContinuityReport:
    """Modulus of continuity under dilation at the grid epsilons and the LUC
    flag: false where the symbol moves by more than 1 under a dilation by the
    smallest epsilon, a jump that epsilon does not resolve.

    A fourth argument, the threshold earlier reports carried, is accepted
    and ignored, so callers that still pass it keep working."""

    __slots__ = ("eps", "omega", "luc_flag")

    def __init__(self, eps, omega, luc_flag, threshold=None):
        eps = np.asarray(eps, dtype=float)
        omega = np.asarray(omega, dtype=float)
        eps.setflags(write=False)
        omega.setflags(write=False)
        self.eps = eps
        self.omega = omega
        self.luc_flag = bool(luc_flag)

    def __repr__(self):
        return f"ContinuityReport(omega_min={self.omega[0]:.3g}, luc={self.luc_flag})"


def continuity_modulus(spec, band, eps_grid):
    """omega(eps) = sup over |log lam| <= eps of the band sup distance between
    the rescaled and original symbol, at the grid epsilons.

    Each positive epsilon contributes lam = e**eps and e**-eps.  Closed forms
    take the exact chord sup of :func:`band_sup_distance` per lam.  A table's
    phase P is a spline in s = log r, so P(s + log lam) - P(s) is piecewise
    cubic: its exact range over the band gives the exact sup per lam.  The
    symbol must reach the band widened by the largest epsilon: a table must
    hold it, and a closed form's phase must stay finite at its ends.

    The flag is ``omega[0] <= 1``.  It is false where a dilation by the
    smallest epsilon moves the phase by more than pi/3 somewhere on the band
    (|exp(i*D) - 1| = 2|sin(D/2)| > 1): a jump that epsilon does not resolve.
    """
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    if eps.size == 0 or not np.all(np.isfinite(eps)) or np.any(eps < 0):
        raise InvalidInputError("eps grid must be finite and non-negative")
    positive = eps[eps > 0]
    shifts = [sign * e for e in positive for sign in (1.0, -1.0)]  # log lam
    s_band = np.log(band.R)
    wide = np.exp([-s_band - eps[-1], s_band + eps[-1]])
    if isinstance(spec, ClosedForm):
        dist = [band_sup_distance(dilate(spec, float(np.exp(x))), spec, band) for x in shifts]
        phase(spec, wide)  # raises DomainError where it overflows
    elif isinstance(spec, Tabulated):
        _check_radii(spec, wide)
        dist = []
        if shifts:
            dist = list(map(_chord_sup, *_pp_difference_range(spec.s, spec._coef, shifts, 1.0,
                                                               -s_band, s_band)))
    else:
        raise InvalidInputError(f"not a multiplier spec: {spec!r}")
    per_eps = np.zeros(eps.size)
    per_eps[eps.size - positive.size:] = np.reshape(dist, (-1, 2)).max(axis=1)
    omega = np.maximum.accumulate(per_eps)
    return ContinuityReport(eps, omega, omega[0] <= 1.0)


# ---------------------------------------------------------------------------
# Tabulated symbol file format: CSV with header "r,re,im".

def save_symbol_csv(path, tab):
    if not isinstance(tab, Tabulated):
        raise InvalidInputError("can only save tabulated profiles")
    _write_csv_table(path, "r,re,im", tab.r, tab.values)


# The last profile load_symbol_csv built, as (file bytes, profile), or None.
# Keyed by the bytes, not the file's stat: a same-size rewrite within one
# clock tick leaves (mtime, size) as it was.
_last_profile = None


def load_symbol_csv(path):
    """Load a tabulated profile; rejects non-log-uniform grids and off-circle
    values (|value| - 1 beyond 1e-9), renormalizing the rest onto the circle.

    A file with the same bytes as the last profile loaded returns that same
    read-only profile without parsing it again, so one process that loads a
    file and then runs ``fracprop identify`` on it parses it once.  Only that
    one profile is kept, about 0.6 MB at 4096 rows; loading another file
    frees it first.  A file that cannot be read, is not UTF-8 or is
    malformed raises :class:`InvalidInputError` (exit 2 in the CLI) and is
    not kept.
    """
    global _last_profile
    raw = _file_bytes(path, "symbol")
    last = _last_profile
    if last is not None and last[0] == raw:
        return last[1]
    _last_profile = last = None  # never hold the old and the new profile at once
    data = _read_csv_table(raw, "r,re,im", "symbol")
    vals = data[:, 1] + 1j * data[:, 2]
    mod = np.abs(vals)
    if np.max(np.abs(mod - 1.0)) > 1e-9:
        raise InvalidInputError("symbol values deviate from unit modulus by more than 1e-9")
    tab = Tabulated(data[:, 0], vals / mod)
    _last_profile = (raw, tab)
    return tab


# ---------------------------------------------------------------------------
# Shared helpers: exact sup of |exp(i*c*r^alpha) - 1| over a radius interval.
# The phase c*r^alpha is monotone in r, so the sup is 2 as soon as the phase
# interval contains an odd multiple of pi, and an endpoint value otherwise.

_EPS = np.finfo(float).eps
# A stored double can satisfy lam**alpha == target only to a few ulps, plus
# about |alpha|/2 more, since lam itself is rounded and the power magnifies
# its relative error alpha-fold; a coefficient difference within
# _SNAP_ULPS + |alpha| ulps is indistinguishable from exact and treated as
# such, otherwise the residual would be dominated by representation error
# rather than by any property of the symbol.  A 1e-9 relative perturbation
# sits more than four orders of magnitude above the snap.
_SNAP_ULPS = 64


def _snapped_chord_sup(diff, scale, alpha, gain=1.0, *, coef):
    """``_power_phase_chord_sup(gain * diff, alpha, r_lo, r_hi)`` over the
    check window ``[r_lo, r_hi]`` = [e^-3, e^3], with a difference ``diff`` of
    coefficients of size ``scale`` taken as zero when it is within
    ``_SNAP_ULPS + |alpha|`` ulps of that size.  Window ends whose power
    ``r**alpha`` leaves the float range raise DomainError first, snapped or
    not, naming the phase ``coef*r**alpha`` of the symbol under test: the
    difference is rounding residue when it would have been snapped."""
    r_lo, r_hi = float(CHECK_RADII[0]), float(CHECK_RADII[-1])
    for r in (r_lo, r_hi):
        try:
            power = float(r) ** alpha
        except OverflowError:
            power = np.inf
        if not np.isfinite(power):
            raise _phase_overflow(coef, alpha, r_lo, r_hi)
    if abs(diff) <= (_SNAP_ULPS + abs(alpha)) * _EPS * scale:
        return 0.0
    return _power_phase_chord_sup(gain * diff, alpha, r_lo, r_hi)


def _phase_overflow(coef, alpha, r_lo, r_hi):
    return DomainError(f"phase {coef:.6g}*r**{alpha:.6g} overflows on [{r_lo:.6g}, {r_hi:.6g}]")


def _power_phase_chord_sup(coef, alpha, r_lo, r_hi):
    if coef == 0.0:
        return 0.0
    try:
        th1 = coef * r_lo**alpha
        th2 = coef * r_hi**alpha
    except OverflowError:
        th1 = th2 = np.inf
    if not (np.isfinite(th1) and np.isfinite(th2)):
        raise _phase_overflow(coef, alpha, r_lo, r_hi)
    return _chord_sup(min(th1, th2), max(th1, th2))


def _chord_sup(lo, hi):
    """Sup of |exp(i*theta) - 1| = 2|sin(theta/2)| over theta in [lo, hi]:
    2 when the interval holds an odd multiple of pi, else the larger of its
    ends' values."""
    if hi - lo >= 2.0 * np.pi:
        return 2.0
    k = int(np.ceil(lo / np.pi))
    if k % 2 == 0:
        k += 1
    if k * np.pi <= hi:
        return 2.0
    return 2.0 * max(abs(np.sin(lo / 2.0)), abs(np.sin(hi / 2.0)))
