"""Product classifier versus the brute-force sampling oracle."""

import numpy as np
import pytest

import fracprop as fp
from fracprop.errors import DomainError, InvalidInputError
from fracprop.exponents import product_values
from conftest import sample_oracle

ORACLE_GRID = np.exp(np.linspace(-3.0, 3.0, 512))


def term(alpha, beta):
    return fp.PhaseTerm(alpha, beta)


def test_classify_single():
    v = fp.classify_product([term(0.0, 4.0 * np.pi)])
    assert v.is_identity and v.case_label == "single-a"
    v = fp.classify_product([term(0.0, 1.0)])
    assert not v.is_identity
    v = fp.classify_product([term(2.0, 1.0)])
    assert not v.is_identity and v.case_label == "none"


def test_classify_pairs():
    v = fp.classify_product([term(2.0, 1.0), term(2.0, -1.0)])
    assert v.is_identity and v.case_label == "pair-b"
    v = fp.classify_product([term(0.0, np.pi), term(0.0, np.pi)])
    assert v.is_identity and v.case_label == "pair-a"
    v = fp.classify_product([term(1.0, 1.0), term(2.0, -1.0)])
    assert not v.is_identity
    assert v.witness is not None
    assert abs(complex(product_values([term(1.0, 1.0), term(2.0, -1.0)], v.witness)) - 1) > 1e-9
    # direct evaluation at r = 2: exp(2i) * exp(-4i) = exp(-2i) != 1
    assert abs(complex(product_values([term(1.0, 1.0), term(2.0, -1.0)], 2.0))
               - np.exp(-2j)) <= 1e-15


def test_classify_triples():
    v = fp.classify_product([term(0.0, 2.0 * np.pi), term(1.5, 3.0), term(1.5, -3.0)])
    assert v.is_identity and v.case_label == "triple-c"
    v = fp.classify_product([term(2.0, 1.0), term(2.0, 2.0), term(2.0, -3.0)])
    assert v.is_identity and v.case_label == "triple-b"
    v = fp.classify_product([term(0.0, np.pi), term(0.0, np.pi / 2), term(0.0, np.pi / 2)])
    assert v.is_identity and v.case_label == "triple-a"
    v = fp.classify_product([term(0.0, 2.0 * np.pi), term(1.5, 3.0), term(1.4, -3.0)])
    assert not v.is_identity


def test_classify_general_and_domain_errors():
    v = fp.classify_product(
        [term(1.0, 1.0), term(1.0, -1.0), term(2.0, 0.5), term(2.0, -0.5)]
    )
    assert v.is_identity and v.case_label == "general"
    with pytest.raises(DomainError):
        fp.classify_product([term(1.0, 0.0)])
    with pytest.raises(InvalidInputError):
        fp.classify_product([])


def test_alpha_tolerance_grouping():
    # exponents that differ by less than the tolerance are merged
    v = fp.classify_product([term(1.0, 2.0), term(1.0 + 1e-12, -2.0)], alpha_tol=1e-9)
    assert v.is_identity
    v = fp.classify_product([term(1.0, 2.0), term(1.0 + 1e-12, -2.0)], alpha_tol=0.0)
    assert not v.is_identity
    # gap within 10x the tolerance but not grouped -> flagged
    v = fp.classify_product([term(1.0, 2.0), term(1.0 + 5e-9, -2.0)], alpha_tol=1e-9)
    assert not v.is_identity and v.near_collision


def test_alpha_tolerance_does_not_chain():
    # each pair of neighbours lies within the tolerance, the outer pair does
    # not; grouping all three would cancel the coefficients 1 + 1 - 2
    terms = [term(1.0, 1.0), term(1.0 + 0.9e-6, 1.0), term(1.0 + 1.8e-6, -2.0)]
    v = fp.classify_product(terms, alpha_tol=1e-6)
    assert not v.is_identity and v.case_label == "none"
    assert v.near_collision
    assert not sample_oracle(terms, np.exp(np.linspace(-3.0, 3.0, 4096)))


def test_sample_oracle_examples():
    assert sample_oracle([term(2.0, 1.0), term(2.0, -1.0)], ORACLE_GRID)
    assert sample_oracle([term(0.0, 4.0 * np.pi)], ORACLE_GRID)
    assert not sample_oracle([term(1.0, 1.0), term(2.0, -1.0)], ORACLE_GRID)
    with pytest.raises(InvalidInputError):
        sample_oracle([term(1.0, 1.0)], ORACLE_GRID[:100])  # too few points
    with pytest.raises(InvalidInputError):
        sample_oracle([term(1.0, 1.0)], np.linspace(1.0, 2.0, 512))  # < 2 decades


def random_term_list(rng):
    length = rng.integers(1, 5)
    lattice = np.arange(-3.0, 3.5, 0.5)
    terms = []
    for _ in range(length):
        alpha = float(rng.choice(lattice))
        beta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
        terms.append(term(alpha, beta))
    # half the time, turn the list into an exact identity construction
    if rng.random() < 0.5:
        style = rng.integers(0, 3)
        if style == 0:
            t = terms[0]
            terms = [t, term(t.alpha if t.alpha != 0 else 1.0, t.beta)]
            terms[1] = term(terms[1].alpha, -t.beta)
            terms[0] = term(terms[1].alpha, t.beta)
        elif style == 1:
            b1, b2 = terms[0].beta, (terms[1].beta if length > 1 else 2.0)
            a = float(rng.choice(lattice[lattice != 0]))
            terms = [term(0.0, 2.0 * np.pi * rng.integers(-3, 4)),
                     term(a, b1), term(a, -b1)]
        else:
            a = float(rng.choice(lattice[lattice != 0]))
            b = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(0.1, 10.0))
            terms = [term(a, b), term(a, c), term(a, -(b + c))]
    return terms


def test_agreement_with_oracle_seeded():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(1000):
        terms = random_term_list(rng)
        if any(t.beta == 0.0 for t in terms):
            continue
        verdict = fp.classify_product(terms)
        oracle = sample_oracle(terms, ORACLE_GRID)
        if verdict.is_identity != oracle:
            disagreements += 1
        if not verdict.is_identity:
            assert verdict.witness is not None
            dev = abs(complex(product_values(terms, verdict.witness)) - 1.0)
            assert dev > 1e-9
        if verdict.case_label == "triple-b":
            assert len(terms) == 3
            assert len({t.alpha for t in terms}) == 1 and terms[0].alpha != 0
            assert abs(sum(t.beta for t in terms)) <= 1e-12 * sum(abs(t.beta) for t in terms)
    assert disagreements == 0


@pytest.mark.parametrize("alpha_tol", [np.nan, np.inf, -1.0])
def test_alpha_tolerance_must_be_finite_and_non_negative(alpha_tol):
    # nan grouped as 0 and inf merged the exponents 2 and 2.0000001
    with pytest.raises(InvalidInputError, match="must be finite and >= 0"):
        fp.classify_product([term(2.0, 1.0), term(2.0000001, -1.0)], alpha_tol=alpha_tol)
