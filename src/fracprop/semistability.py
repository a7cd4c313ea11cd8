"""Scale-doubling/tripling verification for radial symbols.

A symbol is *semistable* for a pair (a, b) when ``m(a*r) = m(r)**2`` and
``m(b*r) = m(r)**3`` for all radii.  For the power-law family the unique such
pair is the canonical one, ``a = 2**(1/alpha)``, ``b = 3**(1/alpha)``; the
checks here compute the sup residuals of both relations plus a reflection
symmetry residual.
"""

import numpy as np

from .errors import DomainError, InvalidInputError, SymbolRangeError
from .symbols import (
    ClosedForm,
    SymbolProduct,
    Tabulated,
    _snapped_chord_sup,
    combine,
    dilate,
    evaluate,
)


class SemistablePair:
    """The two scaling constants (a, b); a == 1 is rejected (it forces m == 1)."""

    __slots__ = ("a", "b", "_alpha")

    def __init__(self, a, b, _alpha=None):
        a = float(a)
        b = float(b)
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0 or b <= 0:
            raise DomainError(f"pair constants must be positive and finite, got ({a}, {b})")
        if a == 1.0:
            raise DomainError("a = 1 is degenerate: the doubling relation forces m == 1")
        self.a = a
        self.b = b
        self._alpha = _alpha  # set when built by canonical_pair; enables exact factors

    def __repr__(self):
        return f"SemistablePair(a={self.a!r}, b={self.b!r})"


def canonical_pair(alpha):
    """The unique pair for exponent alpha: (2**(1/alpha), 3**(1/alpha))."""
    alpha = float(alpha)
    if alpha == 0.0 or not np.isfinite(alpha):
        raise DomainError("no canonical pair for exponent 0 (identity: any pair works)")
    return SemistablePair(2.0 ** (1.0 / alpha), 3.0 ** (1.0 / alpha), _alpha=alpha)


class SemistabilityReport:
    """Residuals of the doubling/tripling relations and the symmetry check."""

    __slots__ = ("res2", "res3", "sym_res", "passed", "pair", "tol", "r_range")

    def __init__(self, res2, res3, sym_res, passed, pair, tol, r_range):
        self.res2 = float(res2)
        self.res3 = float(res3)
        self.sym_res = float(sym_res)
        self.passed = bool(passed)
        self.pair = pair
        self.tol = float(tol)
        self.r_range = (float(r_range[0]), float(r_range[1]))

    def to_dict(self):
        return {
            "res2": self.res2,
            "res3": self.res3,
            "sym_res": self.sym_res,
            "pass": self.passed,
            "pair": {"a": self.pair.a, "b": self.pair.b},
            "tol": self.tol,
            "r_range": list(self.r_range),
        }

    def __repr__(self):
        return (
            f"SemistabilityReport(res2={self.res2:.3g}, res3={self.res3:.3g}, "
            f"pass={self.passed})"
        )


def default_radius_grid(num=4096):
    """Log grid on [e^-3, e^3]: wide enough that an exponent mismatch of 1e-3
    yields a residual >= 1e-2 for |beta| >= 0.1."""
    return np.exp(np.linspace(-3.0, 3.0, int(num)))


def _closed_form_residual(spec, lam, target, r_lo, r_hi, exact):
    # m(lam*r) / m(r)**target = exp(i*beta*(lam**alpha - target)*r**alpha)
    if exact:
        return 0.0
    return _snapped_chord_sup(lam**spec.alpha - target, target, spec.alpha, r_lo, r_hi,
                              gain=spec.beta)


def _sampled_residual(spec, lam, power, r_grid):
    left = evaluate(spec, lam * r_grid)
    right = evaluate(spec, r_grid) ** power
    return float(np.max(np.abs(left - right)))


def _effective_grid(spec, pair, r_grid):
    if not isinstance(spec, Tabulated):
        return r_grid
    lo = spec.r_min / min(1.0, pair.a, pair.b)
    hi = spec.r_max / max(1.0, pair.a, pair.b)
    kept = r_grid[(r_grid >= lo) & (r_grid <= hi)]
    if kept.size < 16:
        raise SymbolRangeError(
            f"tabulated range [{spec.r_min:.4g}, {spec.r_max:.4g}] too small to "
            f"test scaling by a={pair.a:.4g}, b={pair.b:.4g}"
        )
    return kept


def check_semistable(spec, pair, r_grid=None, tol=1e-12):
    """Residuals of m(a*r) = m(r)^2 and m(b*r) = m(r)^3 over the radius grid.

    Closed-form symbols are checked through the algebraically reduced phase
    difference, which is exact over the whole radius interval; tabulated and
    product symbols are checked pointwise (and for tabulated input the grid is
    clipped to the radii where all three of r, a*r, b*r are in range, recorded
    in the report).
    """
    if r_grid is None:
        r_grid = default_radius_grid()
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2 or np.any(r_grid <= 0):
        raise InvalidInputError("radius grid must be positive with >= 2 points")

    if isinstance(spec, ClosedForm):
        exact = pair._alpha is not None and pair._alpha == spec.alpha
        r_lo, r_hi = float(r_grid[0]), float(r_grid[-1])
        res2 = _closed_form_residual(spec, pair.a, 2.0, r_lo, r_hi, exact)
        res3 = _closed_form_residual(spec, pair.b, 3.0, r_lo, r_hi, exact)
        eff = r_grid
    elif isinstance(spec, (Tabulated, SymbolProduct)):
        eff = _effective_grid(spec, pair, r_grid)
        res2 = _sampled_residual(spec, pair.a, 2, eff)
        res3 = _sampled_residual(spec, pair.b, 3, eff)
    else:
        raise InvalidInputError(f"not a multiplier spec: {spec!r}")

    xi_sample = eff[:: max(1, eff.size // 32)]
    sym_res = float(np.max(np.abs(evaluate(spec, xi_sample) - evaluate(spec, -xi_sample))))
    passed = res2 <= tol and res3 <= tol and sym_res <= tol
    return SemistabilityReport(res2, res3, sym_res, passed, pair, tol,
                               (eff[0], eff[-1]))


def order_doubling_residual(spec, r_lo=None, r_hi=None):
    """Sup distance between the squared symbol and the symbol rescaled by
    2**(1/alpha), computed through the actual dilate/combine code paths."""
    if not isinstance(spec, ClosedForm):
        raise InvalidInputError("order check is defined for closed-form symbols")
    if spec.alpha == 0.0:
        if spec.beta == 0.0:
            return 0.0
        raise DomainError("exponent 0 with nonzero coefficient has no order")
    if r_lo is None or r_hi is None:
        grid = default_radius_grid()
        r_lo, r_hi = float(grid[0]), float(grid[-1])
    squared = combine([(spec, 2)])
    rescaled = dilate(spec, 2.0 ** (1.0 / spec.alpha))
    return _snapped_chord_sup(squared.beta - rescaled.beta, max(abs(squared.beta), 1.0),
                              spec.alpha, r_lo, r_hi)


def check_order(spec, tol=1e-12):
    """True iff squaring the operator equals rescaling by 2**(1/alpha).

    Always true analytically for closed forms; the check guards the dilation
    and product implementations (a corrupted rescale factor fails it).
    """
    return order_doubling_residual(spec) <= tol
