"""Column sets, arrows, and branch selection on hand-checked pairs."""

import pytest

from eqpieri.diagram import (
    arrow,
    build,
    cut_columns,
    iter_subsets,
    l_columns,
    q_columns,
    zero_columns,
)
from eqpieri.errors import InputError
from eqpieri.schubert import Space, enumerate_symbols, pieri_bound

GR38 = Space("A", 3, 8)
GR25 = Space("A", 2, 5)
SG38 = Space("C", 3, 4)
SG26 = Space("C", 2, 3)
OG27 = Space("B", 2, 3)
OG18 = Space("D", 1, 4)
OG28 = Space("D", 2, 4)


def test_type_a_reduction():
    d = build(GR38, (1, 4, 8), (1, 3, 6), 5)
    assert d.has_arrow
    assert d.L == frozenset({2, 5})
    assert d.nu == (1, 3, 4, 6, 7, 8)
    assert d.m_prime == 6
    assert d.p_prime == 2
    assert d.branch == "restriction"
    assert d.sum_set == ()


def test_type_a_arrow():
    assert arrow(GR38, (1, 4, 8), (1, 3, 6))
    # lambda_1 = 3 is not strictly below mu_2 = 2
    assert not arrow(GR25, (3, 4), (1, 2))
    assert arrow(GR25, (3, 4), (2, 4))
    # containment alone is enough to build in type A
    d = build(GR25, (3, 4), (1, 2), 1)
    assert not d.has_arrow


def test_symplectic_worked_pair():
    lam, mu = (2, 4, 8), (1, 3, 5)
    assert cut_columns(SG38, lam, mu) == frozenset({0, 2, 4, 6, 8})
    assert q_columns(SG38, cut_columns(SG38, lam, mu)) == (2, 4)
    assert l_columns(SG38, lam, mu, zero_columns(SG38, lam, mu)) == frozenset()
    d = build(SG38, lam, mu, 5)
    assert d.branch == "sum"
    assert d.nu == tuple(range(1, 9))
    assert d.m_prime == 6 and d.p_prime == 2
    assert d.sum_set == (2, 4)
    assert d.nu_I(()) == (1, 2, 3, 4, 6, 8)
    assert d.nu_I((2,)) == (1, 3, 4, 6, 7, 8)
    assert d.nu_I((4,)) == (1, 2, 3, 5, 6, 8)
    assert d.nu_I((2, 4)) == (1, 3, 5, 6, 7, 8)
    with pytest.raises(InputError):
        d.nu_I((3,))


def test_symplectic_arrow_mirror_condition():
    # lambda_1 = mu_2 = 2 needs a row j with mu_j < 7 < lambda_j
    assert arrow(SG38, (2, 4, 8), (1, 2, 5))
    assert not arrow(SG38, (2, 4, 6), (1, 2, 4))


def test_odd_orthogonal_halving_pair():
    lam, mu = (3, 6), (1, 6)
    assert zero_columns(OG27, lam, mu) == frozenset({4, 5, 7})
    assert cut_columns(OG27, lam, mu) == frozenset(range(8))
    assert q_columns(OG27, cut_columns(OG27, lam, mu)) == ()
    assert l_columns(OG27, lam, mu, zero_columns(OG27, lam, mu)) == frozenset({2, 4, 5, 7})
    d = build(OG27, lam, mu, 3)
    assert d.branch == "halving"
    assert d.nu == (1, 3, 6)
    assert d.nu_plus() == (1, 3, 4, 6)
    assert d.m_prime == 3 and d.p_prime == 2
    # p <= n - m keeps the sum branch
    d1 = build(OG27, lam, mu, 1)
    assert d1.branch == "sum" and d1.p_prime == 0


def test_even_orthogonal_restriction_pair():
    d = build(OG18, (2,), (1,), 4)
    assert d.L == frozenset(range(3, 9))
    assert d.nu == (1, 2)
    assert d.branch == "orthogonal_restriction"
    assert d.m_prime == 2 and d.p_prime == 3


def test_even_orthogonal_drop_pair():
    d = build(OG18, (8,), (1,), 6)
    assert d.Q == (4,)
    assert d.dropped == 4
    assert d.Qprime == ()
    assert d.branch == "sum"
    assert d.nu == tuple(range(1, 9))
    assert d.m_prime == 8 and d.p_prime == 0
    assert d.nu_I(()) == tuple(range(1, 9))


def test_dropped_column_override():
    d = build(OG18, (8,), (1,), 6, chat=4)
    assert d.dropped == 4
    with pytest.raises(InputError):
        build(OG18, (8,), (1,), 6, chat=3)
    with pytest.raises(InputError):
        build(OG18, (2,), (1,), 4, chat=4)  # nothing is dropped here
    with pytest.raises(InputError):
        build(SG38, (2, 4, 8), (1, 3, 5), 5, chat=2)


def test_pivot_replacement():
    lam, mu = (2, 4, 8), (1, 3, 5)
    d = build(SG38, lam, mu, 5, pivot=(1, 3))
    assert d.sum_set == (1, 3)
    assert d.m_prime == 6
    assert d.nu_I(()) == (1, 2, 3, 4, 5, 7)  # mirrors 8 and 6 removed
    assert d.nu_I((1, 3)) == (2, 4, 5, 6, 7, 8)
    with pytest.raises(InputError):
        build(SG38, lam, mu, 5, pivot=(1,))
    with pytest.raises(InputError):
        build(SG38, lam, mu, 5, pivot=(1, 1))
    with pytest.raises(InputError):
        build(OG27, (3, 6), (1, 6), 3, pivot=())


def test_arrow_middle_wall_rules():
    # overlap lambda_i = n+1, mu_(i+1) = n is allowed
    assert arrow(OG28, (5, 8), (2, 4))
    # equality at the wall is forbidden
    assert not arrow(OG28, (4, 8), (1, 4))
    assert not arrow(OG28, (5, 8), (1, 5))


def test_build_requires_arrow_outside_type_a():
    with pytest.raises(InputError, match="arrow"):
        build(OG28, (4, 8), (1, 4), 1)
    with pytest.raises(InputError):
        build(GR25, (1, 2), (2, 3), 1)  # not even comparable


def test_iter_subsets_order():
    assert list(iter_subsets((2, 4))) == [(), (2,), (4,), (2, 4)]


def test_describe_mentions_branch():
    text = build(OG27, (3, 6), (1, 6), 3).describe()
    assert "halving" in text and "nu+" in text
    text = build(SG38, (2, 4, 8), (1, 3, 5), 5).describe()
    assert "sum over subsets" in text and "I=[2, 4]" in text


def test_all_arrows_build_cleanly():
    # every arrow pair on the small spaces passes the internal checks
    for space in (GR25, SG26, OG27, OG28):
        symbols = enumerate_symbols(space)
        for lam in symbols:
            for mu in symbols:
                if not arrow(space, lam, mu):
                    continue
                for p in range(0, pieri_bound(space) + 1):
                    d = build(space, lam, mu, p)
                    assert d.branch in (
                        "restriction",
                        "sum",
                        "halving",
                        "orthogonal_restriction",
                    )
                    for I in iter_subsets(d.sum_set):
                        nu_I = d.nu_I(I)
                        assert len(nu_I) == d.m_prime
