"""References shared by several test modules."""

from itertools import combinations, combinations_with_replacement

import pytest

from eqpieri.polyring import Polynomial
from eqpieri.restrict_a import restriction_instance


def _product_of_variables(indices, nvars):
    term = Polynomial.one(nvars)
    for i in indices:
        term = term * Polynomial.variable(i, nvars)
    return term


def _symfn_coefficient(space, nu, p):
    """N^nu_{nu,p} on Gr(m, N) as sum_k e_k(t_b) h_{p-k}(-t_a)."""
    N = space.n
    if p < 0 or p > N - space.m:
        return Polynomial.zero(N)
    if p == 0:
        return Polynomial.one(N)
    inst = restriction_instance(space, nu, p)
    total = Polynomial.zero(N)
    for k in range(p + 1):
        elementary = Polynomial.zero(N)
        for combo in combinations(inst.b, k):
            elementary = elementary + _product_of_variables(combo, N)
        complete = Polynomial.zero(N)
        for combo in combinations_with_replacement(inst.a, p - k):
            complete = complete + _product_of_variables(combo, N)
        sign = -1 if (p - k) % 2 else 1
        total = total + elementary * complete * sign
    return total


@pytest.fixture(scope="session")
def restriction_coefficient_symfn():
    """The restriction coefficient by the symmetric-function closed form,
    an independent reference for restrict_a.restriction_coefficient."""
    return _symfn_coefficient
