"""One-parameter unitary groups with symbols exp(i*beta*t*|xi|**alpha).

The member at time t is the closed form (alpha, beta*t).  Two identities are
checked: the group law T(t1 + t2) = T(t1) T(t2) on a band-limited signal,
where phases add exactly, and, for t > 0, the member as the time-1 member
rescaled by t**(1/alpha), on the symbols.
"""

import numpy as np

from .errors import DomainError, InvalidInputError
from .grids import forward_transform
from .operators import _apply_spectrum, _on_band
from .symbols import ClosedForm, _float_power, _snapped_chord_sup, dilate


class GroupSpec:
    """Group parameters: (0, 0) is the trivial group; otherwise both nonzero.

    A pair like (0, 1) is rejected: a constant symbol other than 1 cannot sit
    inside a group of this family (its members would not stay in the family
    for all t).
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise InvalidInputError("group parameters must be finite")
        if (alpha == 0.0) != (beta == 0.0):
            raise DomainError(
                f"invalid group ({alpha}, {beta}): either both parameters are "
                f"zero (trivial group) or both are nonzero"
            )
        self.alpha = alpha
        self.beta = beta

    @property
    def is_trivial(self):
        return self.beta == 0.0

    def __repr__(self):
        return f"GroupSpec(alpha={self.alpha}, beta={self.beta})"


def member(group, t):
    """Symbol of the group element at time t; t = 0 gives the constant 1."""
    return ClosedForm(group.alpha, group.beta * float(t))


def check_group_law(group, t1, t2, f, band):
    """Relative residual of T(t1+t2) f versus T(t1) T(t2) f.

    Both sides are compared on the band bins, where they live: by discrete
    Plancherel that is the norm of their difference as signals, since both
    vanish off the band.  Only ``T(t2) f`` is carried back to a signal, so a
    pair costs three FFTs.  Phases add exactly, so only round-off remains:
    the contract is 1e-12.  A zero signal has no relative residual and
    raises InvalidInputError.
    """
    nf = f.norm()
    if nf == 0.0:
        raise InvalidInputError("group law needs a nonzero signal")
    g = f.grid
    F = forward_transform(f)
    idx = g._band_bins(band.R)[1]
    lhs = _on_band(member(group, t1 + t2), g, band) * F.values[idx]
    mid = _apply_spectrum(_on_band(member(group, t2), g, band), F, band)
    rhs = _on_band(member(group, t1), g, band) * forward_transform(mid).values[idx]
    num = np.linalg.norm(lhs - rhs) * np.sqrt(g.dxi)
    return float(num / nf)


def check_scaling(group, t):
    """Sup distance over the check window [e^-3, e^3] between the time-t
    symbol and the time-1 symbol rescaled by t**(1/alpha); both equal
    exp(i*beta*t*r**alpha) analytically."""
    if group.alpha == 0.0:
        raise DomainError("scaling identity needs a nonzero order")
    t = float(t)
    if t <= 0:
        raise DomainError(f"scaling identity is stated for t > 0, got {t}")
    direct = member(group, t)
    rescaled = dilate(member(group, 1.0),
                      _float_power(t, 1.0 / group.alpha, "rescaling factor t**(1/alpha)"))
    scale = max(abs(direct.beta), abs(rescaled.beta), 1.0)
    return _snapped_chord_sup(direct.beta - rescaled.beta, scale, group.alpha, coef=direct.beta)
