"""Restriction coefficients on ordinary Grassmannians."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqpieri.errors import InputError
from eqpieri.pieri import specialization_images
from eqpieri.polyring import Polynomial
from eqpieri.restrict_a import _restriction, restriction_coefficient
from eqpieri.schubert import Space, enumerate_symbols, leq, special_symbol


def t(i, n):
    return Polynomial.variable(i, n)


def variables(n):
    return [t(i, n) for i in range(1, n + 1)]


def test_frozen_values_on_gr68():
    space = Space("A", 6, 8)
    assert restriction_coefficient(space, (1, 3, 4, 6, 7, 8), 2) == (
        t(2, 8) - t(1, 8)
    ) * (t(5, 8) - t(1, 8))
    assert restriction_coefficient(space, (1, 3, 5, 6, 7, 8), 2) == (
        t(2, 8) - t(1, 8)
    ) * (t(4, 8) - t(1, 8))
    assert restriction_coefficient(space, (1, 2, 3, 5, 6, 8), 2) == (
        t(4, 8) - t(1, 8)
    ) * (t(7, 8) - t(1, 8))
    assert restriction_coefficient(space, (1, 2, 3, 4, 6, 8), 2) == (
        t(5, 8) - t(1, 8)
    ) * (t(7, 8) - t(1, 8))


def test_frozen_value_on_gr47():
    space = Space("A", 4, 7)
    assert restriction_coefficient(space, (1, 3, 4, 6), 2) == (
        t(5, 7) - t(1, 7)
    ) * (t(7, 7) - t(1, 7))


def test_instance_shape(marker_split):
    # I1 = [1, 3] and I2 = [4, 6] on Gr(2, 6) at p = 2
    space = Space("A", 2, 6)
    a, b = marker_split(space, (2, 3), 2)
    assert a == (2, 3) and b == (4, 5, 6) and len(b) == 2 + len(a) - 1
    value = restriction_coefficient(space, (2, 3), 2)
    assert value == subword_sum(a, b, 2, variables(6))
    assert len(value.terms) > 0 and value.is_homogeneous() and value.degree() == 2
    with pytest.raises(InputError):
        restriction_coefficient(Space("C", 2, 3), (2, 3), 2)


def test_edge_cases():
    space = Space("A", 2, 6)
    assert restriction_coefficient(space, (2, 3), 0) == Polynomial.one(6)
    assert restriction_coefficient(space, (2, 3), -1) == Polynomial.zero(6)
    assert restriction_coefficient(space, (2, 3), 5).is_zero  # beyond N - m
    # point not below the special symbol
    assert restriction_coefficient(space, (5, 6), 1).is_zero
    empty = Space("A", 0, 5)
    assert restriction_coefficient(empty, (), 0) == Polynomial.one(5)
    assert restriction_coefficient(empty, (), 2).is_zero


def test_images_on_the_factors_equal_substitution_into_the_value():
    # a signed relabelling is a ring map: applying it to each linear factor
    # before the product gives the substituted coefficient, in every edge case
    for N, folds in ((8, (Space("C", 1, 4), Space("D", 1, 4))), (9, (Space("B", 1, 4),))):
        for fold in folds:
            images = specialization_images(fold)  # type B sends t_5 to zero
            for m in range(1, 4):
                space = Space("A", m, N)
                for nu in enumerate_symbols(space):
                    for p in range(-1, N - m + 2):
                        folded = _restriction(N, nu, p, images)
                        assert folded.nvars == fold.n
                        assert folded == restriction_coefficient(space, nu, p).substitute(images)


def test_support_matches_order_with_special_symbol():
    for N in range(2, 8):
        for m in range(1, N + 1):
            space = Space("A", m, N)
            for p in range(1, N - m + 1):
                s_p = special_symbol(space, p)[0]
                for nu in enumerate_symbols(space):
                    value = restriction_coefficient(space, nu, p)
                    assert value.is_zero == (not leq(space, nu, s_p))
                    if not value.is_zero:
                        assert value.is_homogeneous() and value.degree() == p


def test_subword_and_symmetric_function_forms_agree(restriction_coefficient_symfn):
    for N in range(2, 8):
        for m in range(1, N + 1):
            space = Space("A", m, N)
            for p in range(1, min(3, N - m) + 1):
                for nu in enumerate_symbols(space):
                    assert restriction_coefficient(
                        space, nu, p
                    ) == restriction_coefficient_symfn(space, nu, p)


def subword_sum(a, b, p, images):
    """The sum of the module docstring, one product per subword; the
    reference for the row recursion of _restriction."""
    r = len(a)
    total = Polynomial.zero(images[0].nvars)
    for cs in combinations(range(1, p + r), p):
        term = Polynomial.one(total.nvars)
        for i, c in enumerate(cs):
            term = term * (images[b[c - 1] - 1] - images[a[c - i - 1] - 1])
        total = total + term
    return total


@st.composite
def instances_with_images(draw):
    """A restriction coefficient (space, nu, p) on Gr(m, N) and images of the
    N weights: the variables themselves, or the folding map of a B, C or D
    space."""
    N = draw(st.integers(2, 9))
    m = draw(st.integers(0, N - 1))
    nu = tuple(sorted(draw(st.sets(st.integers(1, N), min_size=m, max_size=m))))
    p = draw(st.integers(1, N - m))
    folds = [Space("B", 0, N // 2)] if N % 2 else [Space("C", 0, N // 2)]
    if N % 2 == 0 and N >= 4:
        folds.append(Space("D", 0, N // 2))
    fold = draw(st.sampled_from([None] + folds))
    images = variables(N) if fold is None else specialization_images(fold)
    return Space("A", m, N), nu, p, images


@settings(max_examples=150, deadline=None, database=None)
@given(instances_with_images())
def test_row_recursion_equals_the_subword_sum(marker_split, case):
    space, nu, p, images = case
    a, b = marker_split(space, nu, p)
    value = _restriction(space.n, nu, p, images)
    assert value == subword_sum(a, b, p, images)


def test_values_positive_at_increasing_points(evaluate):
    # every factor t_j - t_i has i < j, so any increasing point is positive
    space = Space("A", 3, 7)
    point = list(range(1, 8))
    for nu in enumerate_symbols(space):
        for p in range(1, 5):
            value = restriction_coefficient(space, nu, p)
            if not value.is_zero:
                assert evaluate(value, point) > 0


def test_matches_fixed_point_integration_numerically(marker_split, evaluate):
    # compare against the localization form: sum over j of
    # prod(t_b - t_{a_j}) / prod(t_{a_i} - t_{a_j}), at random points
    rng = random.Random(2024)
    for _ in range(40):
        N = rng.randint(3, 8)
        m = rng.randint(1, N - 1)
        space = Space("A", m, N)
        nu = tuple(sorted(rng.sample(range(1, N + 1), m)))
        p = rng.randint(1, N - m)
        point = rng.sample(range(-30, 31), N)
        a, b = marker_split(space, nu, p)
        lhs = Fraction(0)
        for j in a:
            num = Fraction(1)
            for i in b:
                num *= point[i - 1] - point[j - 1]
            den = Fraction(1)
            for i in a:
                if i != j:
                    den *= point[i - 1] - point[j - 1]
            lhs += num / den
        assert lhs == evaluate(restriction_coefficient(space, nu, p), point)


def test_schur_identity_random(schur_identity_check):
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(1, 5)
        p = rng.randint(0, 5)
        xs = rng.sample(range(-20, 21), r)
        ys = [rng.randint(-20, 20) for _ in range(p + r - 1)]
        assert schur_identity_check(xs, ys)
    with pytest.raises(InputError):
        schur_identity_check([1, 1], [2, 3])

