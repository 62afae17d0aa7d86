"""References shared by several test modules."""

from itertools import combinations, combinations_with_replacement

import pytest

from eqpieri.polyring import Polynomial


def _product_of_variables(indices, nvars):
    term = Polynomial.one(nvars)
    for i in indices:
        term = term * Polynomial.variable(i, nvars)
    return term


def _polynomial(nvars, terms):
    """sum of coeff * x^exp over an exponent-tuple dict, built from the
    public constructors and arithmetic alone, never from packed keys."""
    total = Polynomial.zero(nvars)
    for exp, coeff in terms.items():
        assert len(exp) == nvars
        indices = [i for i, e in enumerate(exp, 1) for _ in range(e)]
        total = total + Polynomial.constant(coeff, nvars) * _product_of_variables(indices, nvars)
    return total


def _marker_split(space, nu, p):
    """(a, b) of the restrict_a module docstring, from its definition:
    a = I1 intersect nu and b = I2 minus nu, sorted, for I1 = [1, N-m-p+1]
    and I2 = [N-m-p+2, N]."""
    N, m = space.n, space.m
    I1 = set(range(1, N - m - p + 2))
    I2 = set(range(N - m - p + 2, N + 1))
    return tuple(sorted(I1 & set(nu))), tuple(sorted(I2 - set(nu)))


def _evaluate(poly, point):
    """poly at a point of ints or Fractions, exactly, term by term."""
    assert len(point) == poly.nvars
    total = 0
    for exp, coeff in poly.terms.items():
        for value, e in zip(point, exp):
            coeff = coeff * value**e
        total = total + coeff
    return total


def _symfn_coefficient(space, nu, p):
    """N^nu_{nu,p} on Gr(m, N) as sum_k e_k(t_b) h_{p-k}(-t_a)."""
    N = space.n
    if p < 0 or p > N - space.m:
        return Polynomial.zero(N)
    if p == 0:
        return Polynomial.one(N)
    a, b = _marker_split(space, nu, p)
    total = Polynomial.zero(N)
    for k in range(p + 1):
        elementary = Polynomial.zero(N)
        for combo in combinations(b, k):
            elementary = elementary + _product_of_variables(combo, N)
        complete = Polynomial.zero(N)
        for combo in combinations_with_replacement(a, p - k):
            complete = complete + _product_of_variables(combo, N)
        sign = Polynomial.constant(-1 if (p - k) % 2 else 1, N)
        total = total + elementary * complete * sign
    return total


@pytest.fixture(scope="session")
def polynomial():
    """A Polynomial from nvars and a dict of exponent tuples to coefficients."""
    return _polynomial


@pytest.fixture(scope="session")
def restriction_coefficient_symfn():
    """The restriction coefficient by the symmetric-function closed form,
    an independent reference for restrict_a.restriction_coefficient."""
    return _symfn_coefficient


@pytest.fixture(scope="session")
def marker_split():
    """The split (a, b) of one restriction coefficient, by its definition."""
    return _marker_split


@pytest.fixture(scope="session")
def evaluate():
    """Exact evaluation of a Polynomial at a point."""
    return _evaluate
