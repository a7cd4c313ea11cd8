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
    CHECK_RADII,
    ClosedForm,
    Tabulated,
    _check_radii,
    _chord_sup,
    _float_power,
    _pp_difference_range,
    _snapped_chord_sup,
    dilate,
    evaluate,
)


class SemistablePair:
    """The two scaling constants (a, b); a == 1 is rejected (it forces m == 1)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = float(a)
        b = float(b)
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0 or b <= 0:
            raise DomainError(f"pair constants must be positive and finite, got ({a}, {b})")
        if a == 1.0:
            raise DomainError("a = 1 is degenerate: the doubling relation forces m == 1")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"SemistablePair(a={self.a!r}, b={self.b!r})"


def canonical_pair(alpha):
    """The unique pair for exponent alpha: (2**(1/alpha), 3**(1/alpha)).

    A constant outside the float range, or subnormal (so left with only a
    few significant bits), raises DomainError naming it.
    """
    alpha = float(alpha)
    if alpha == 0.0 or not np.isfinite(alpha):
        raise DomainError("no canonical pair for exponent 0 (identity: any pair works)")
    a = _float_power(2.0, 1.0 / alpha, "canonical pair constant 2**(1/alpha)")
    b = _float_power(3.0, 1.0 / alpha, "canonical pair constant 3**(1/alpha)")
    # b = a**log2(3), so wherever a is subnormal b has underflowed to 0
    if b < np.finfo(float).tiny:
        raise DomainError(
            f"canonical pair constant 3**(1/alpha) = 3**{1.0 / alpha:.6g} = {b:.3g} is subnormal"
        )
    return SemistablePair(a, b)


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


def _closed_form_residual(spec, lam, target):
    # m(lam*r) / m(r)**target = exp(i*beta*(lam**alpha - target)*r**alpha)
    power = _float_power(lam, spec.alpha, "scaling power lam**alpha")
    return _snapped_chord_sup(power - target, target, spec.alpha, gain=spec.beta, coef=spec.beta)


def _effective_grid(spec, pair):
    """The check radii r where r, a*r and b*r all lie in a tabulated range."""
    lo = spec.r_min / min(1.0, pair.a, pair.b)
    hi = spec.r_max / max(1.0, pair.a, pair.b)
    kept = CHECK_RADII[(CHECK_RADII >= lo) & (CHECK_RADII <= hi)]
    if kept.size < 16:
        raise SymbolRangeError(
            f"tabulated range [{spec.r_min:.4g}, {spec.r_max:.4g}] too small to "
            f"test scaling by a={pair.a:.4g}, b={pair.b:.4g}"
        )
    return kept


def check_semistable(spec, pair, tol=1e-12):
    """Sup residuals of m(a*r) = m(r)^2 and m(b*r) = m(r)^3 over the check
    window [e^-3, e^3] (``symbols.CHECK_RADII``).

    Both residuals are exact over the whole window, up to rounding.
    Closed-form symbols are checked through the algebraically reduced phase
    difference.  For a tabulated symbol the window is clipped to the check
    radii where all three of r, a*r, b*r are in range (recorded in the
    report), and its spline phase P gives the piecewise-cubic
    P(s + log a) - 2*P(s), whose exact range yields the sup (likewise for b
    and 3).  That is the sup over the interpolant, not over the function the
    table samples.  The symmetry residual compares m(xi) and m(-xi) on about
    32 of the window's radii.
    """
    if isinstance(spec, ClosedForm):
        res2 = _closed_form_residual(spec, pair.a, 2.0)
        res3 = _closed_form_residual(spec, pair.b, 3.0)
        eff = CHECK_RADII
    elif isinstance(spec, Tabulated):
        eff = _effective_grid(spec, pair)
        ends = np.array([eff[0], eff[-1]])
        _check_radii(spec, np.concatenate([ends, pair.a * ends, pair.b * ends]))
        # P(s + log a) - 2*P(s) and P(s + log b) - 3*P(s) over the window
        lo, hi = _pp_difference_range(spec.s, spec._coef, np.log([pair.a, pair.b]),
                                      [2.0, 3.0], *np.log(ends))
        res2, res3 = map(_chord_sup, lo, hi)
    else:
        raise InvalidInputError(f"not a multiplier spec: {spec!r}")

    xi_sample = eff[:: max(1, eff.size // 32)]
    sym_res = float(np.max(np.abs(evaluate(spec, xi_sample) - evaluate(spec, -xi_sample))))
    passed = res2 <= tol and res3 <= tol and sym_res <= tol
    return SemistabilityReport(res2, res3, sym_res, passed, pair, tol,
                               (eff[0], eff[-1]))


def order_doubling_residual(spec):
    """Sup distance over the check window [e^-3, e^3] between the squared
    symbol, whose coefficient is 2*beta, and the symbol rescaled by
    2**(1/alpha), computed through the actual dilate code path."""
    if not isinstance(spec, ClosedForm):
        raise InvalidInputError("order check is defined for closed-form symbols")
    if spec.alpha == 0.0:
        if spec.beta == 0.0:
            return 0.0
        raise DomainError("exponent 0 with nonzero coefficient has no order")
    squared = 2.0 * spec.beta
    rescaled = dilate(spec, _float_power(2.0, 1.0 / spec.alpha, "order 2**(1/alpha)"))
    return _snapped_chord_sup(squared - rescaled.beta, max(abs(squared), 1.0),
                              spec.alpha, coef=spec.beta)
