"""References shared by several test modules."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from eqpieri.errors import InputError
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


def _family_twist_images(n):
    """t_n -> -t_n, the torus action of the outer symmetry in type D."""
    return [Polynomial.variable(i, n) for i in range(1, n)] + [-Polynomial.variable(n, n)]


def _schur_identity_check(xs, ys):
    """The partial-fraction identity behind the restrict_a subword formula,

        sum_j prod_y (y - x_j) / prod_{i != j} (x_i - x_j)
            = sum over 1 <= c_1 < ... < c_p <= p+r-1 of prod_i (y_{c_i} - x_{c_i-i+1}),

    at the rational point (xs, ys), both sides exactly; xs pairwise distinct
    and p = len(ys) - len(xs) + 1 >= 0."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    r = len(xs)
    p = len(ys) - r + 1
    if p < 0:
        raise InputError("need len(ys) >= len(xs) - 1")
    if len(set(xs)) != r:
        raise InputError("x values must be pairwise distinct")
    lhs = Fraction(0)
    for j in range(r):
        num = Fraction(1)
        for y in ys:
            num *= y - xs[j]
        den = Fraction(1)
        for i in range(r):
            if i != j:
                den *= xs[i] - xs[j]
        lhs += num / den
    rhs = Fraction(0)
    for cs in combinations(range(1, p + r), p):
        term = Fraction(1)
        for i, c in enumerate(cs):
            term *= ys[c - 1] - xs[c - i - 1]
        rhs += term
    return lhs == rhs


@pytest.fixture(scope="session")
def family_twist_images():
    """The images of t_1..t_n under the type-D twist t_n -> -t_n, for substitute."""
    return _family_twist_images


@pytest.fixture(scope="session")
def schur_identity_check():
    """Whether the type-A partial-fraction identity holds at one rational point."""
    return _schur_identity_check


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
