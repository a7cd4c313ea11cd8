"""Decision procedure for when a finite product of phase factors
``exp(i*beta_j*r**alpha_j)`` is identically 1 over r > 0.

Terms with a common exponent add their coefficients; distinct exponents are
independent (the set of radii where a nontrivial combination hits a full turn
is countable), so the product is the constant 1 exactly when every group with
a nonzero exponent cancels and the zero-exponent group sums to a multiple of
2*pi.  A brute-force sampling oracle provides an independent cross-check.
"""

import numpy as np

from .errors import DomainError, InvalidInputError
from .symbols import CHECK_RADII

TWO_PI = 2.0 * np.pi
_SUM_TOL = 1e-12          # relative to sum of |beta|
_TURN_TOL = 1e-12         # distance of sum/(2*pi) to the nearest integer
_ORACLE_TOL = 1e-9
_WITNESS_FLOOR = 1e-6


class PhaseTerm:
    """One factor exp(i*beta*r**alpha); beta must be nonzero for classification."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise InvalidInputError("term parameters must be finite")
        self.alpha = alpha
        self.beta = beta

    def __repr__(self):
        return f"PhaseTerm(alpha={self.alpha}, beta={self.beta})"


class ProductVerdict:
    __slots__ = ("is_identity", "case_label", "witness", "near_collision")

    def __init__(self, is_identity, case_label, witness, near_collision):
        self.is_identity = bool(is_identity)
        self.case_label = str(case_label)
        self.witness = None if witness is None else float(witness)
        self.near_collision = bool(near_collision)

    def to_dict(self):
        return {
            "is_identity": self.is_identity,
            "case_label": self.case_label,
            "witness": self.witness,
            "near_collision": self.near_collision,
        }

    def __repr__(self):
        return f"ProductVerdict({self.case_label}, identity={self.is_identity})"


def product_values(terms, r):
    """The product at the given radii, computed through the summed phase."""
    r = np.asarray(r, dtype=float)
    total = np.zeros_like(r)
    for t in terms:
        total += t.beta * r**t.alpha
    return np.exp(1j * total)


def _group_by_exponent(terms, alpha_tol):
    # measured from the group's first (smallest) exponent, so that a group
    # spans at most alpha_tol and close neighbours cannot chain into one
    order = sorted(range(len(terms)), key=lambda i: terms[i].alpha)
    groups = []
    for i in order:
        if groups and terms[i].alpha - terms[groups[-1][0]].alpha <= alpha_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _find_witness(terms):
    dev = np.abs(product_values(terms, CHECK_RADII) - 1.0)
    above = np.where(dev >= _WITNESS_FLOOR)[0]
    idx = int(above[0]) if above.size else int(np.argmax(dev))
    return float(CHECK_RADII[idx])


def classify_product(terms, alpha_tol=0.0):
    """Classify whether the product of the terms is identically one.

    ``alpha_tol`` states when two exponents count as equal (0 = bitwise); use
    e.g. 1e-9 for exponents coming out of a numerical fit.  It must be finite
    and non-negative.  The verdict labels the small cases (single/pair/triple)
    by which cancellation pattern holds, uses ``general`` for longer identity
    products, and records a scan witness radius whenever the product is not
    the identity.
    """
    terms = list(terms)
    if not terms:
        raise InvalidInputError("need at least one term")
    if not 0.0 <= alpha_tol < np.inf:
        raise InvalidInputError(f"alpha tolerance must be finite and >= 0, got {alpha_tol}")
    for t in terms:
        if t.beta == 0.0:
            raise DomainError("classification requires every coefficient nonzero")

    groups = _group_by_exponent(terms, alpha_tol)
    # neighbouring exponents kept in different groups, yet within 10x the tolerance
    near_collision = any(
        0.0 < terms[b[0]].alpha - terms[a[-1]].alpha <= 10.0 * alpha_tol
        for a, b in zip(groups, groups[1:])
    )

    beta_scale = sum(abs(t.beta) for t in terms)
    is_identity = True
    zero_groups = 0
    nonzero_groups = 0
    for g in groups:
        gsum = sum(terms[i].beta for i in g)
        is_zero_exp = any(abs(terms[i].alpha) <= alpha_tol for i in g)
        if is_zero_exp:
            zero_groups += 1
            if abs(gsum / TWO_PI - round(gsum / TWO_PI)) > _TURN_TOL:
                is_identity = False
        else:
            nonzero_groups += 1
            if abs(gsum) > _SUM_TOL * beta_scale:
                is_identity = False

    if not is_identity:
        return ProductVerdict(False, "none", _find_witness(terms), near_collision)

    n = len(terms)
    if n == 1:
        label = "single-a"
    elif n == 2:
        label = "pair-a" if zero_groups else "pair-b"
    elif n == 3:
        if len(groups) == 1:
            label = "triple-a" if zero_groups else "triple-b"
        else:
            label = "triple-c"
    else:
        label = "general"
    return ProductVerdict(True, label, None, near_collision)


def sample_oracle(terms, r_grid):
    """Brute-force check: is the product within 1e-9 of 1 at every radius?

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
    return bool(np.max(np.abs(product_values(list(terms), r) - 1.0)) <= _ORACLE_TOL)
