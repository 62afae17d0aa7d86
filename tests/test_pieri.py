"""Structure coefficients: worked values, invariants, and branch behavior."""

import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqpieri.pieri
from eqpieri.diagram import arrow, build
from eqpieri.errors import InputError
from eqpieri.gkm import GkmEngine
from eqpieri.pieri import (
    compute_pieri,
    pieri_coefficient,
    pieri_expansion,
    positivity_certificate,
    specialization_images,
    swap_wall_letters,
)
from eqpieri.polyring import Polynomial
from eqpieri.schubert import (
    Space,
    codim,
    enumerate_symbols,
    pieri_bound,
    special_symbol,
)

GR38 = Space("A", 3, 8)
SG38 = Space("C", 3, 4)
SG26 = Space("C", 2, 3)
OG27 = Space("B", 2, 3)
OG26 = Space("D", 2, 3)
OG28 = Space("D", 2, 4)
OG18 = Space("D", 1, 4)


def t(i, n):
    return Polynomial.variable(i, n)


def test_ordinary_grassmannian_worked_value():
    value = pieri_coefficient(GR38, (1, 4, 8), (1, 3, 6), 5)
    assert value == (t(2, 8) - t(1, 8)) * (t(5, 8) - t(1, 8))


def test_symplectic_worked_value_and_terms():
    result = compute_pieri(SG38, (2, 4, 8), (1, 3, 5), 5)
    assert result.value == Polynomial.constant(4, 4) * t(1, 4) * t(1, 4)
    assert [term.subset for term in result.terms] == [(), (2,), (4,), (2, 4)]
    x = [None] + [t(i, 8) for i in range(1, 9)]
    expected = {
        (): (x[1] - x[5]) * (x[1] - x[7]),
        (2,): (x[1] - x[2]) * (x[1] - x[5]),
        (4,): (x[1] - x[4]) * (x[1] - x[7]),
        (2, 4): (x[1] - x[2]) * (x[1] - x[4]),
    }
    for term in result.terms:
        assert term.unspecialized == expected[term.subset]


def test_odd_orthogonal_halving_worked_value():
    result = compute_pieri(OG27, (3, 6), (1, 6), 3)
    assert result.value == t(1, 3) * t(3, 3) + t(1, 3) * t(1, 3)
    assert result.diagram.branch == "halving"
    assert result.diagram.nu_plus() == (1, 3, 4, 6)


def test_even_orthogonal_restriction_worked_value():
    result = compute_pieri(OG18, (2,), (1,), 4)
    x = [None] + [t(i, 4) for i in range(1, 5)]
    expected = (-x[1] - x[2]) * (
        (-x[4] - x[2]) * (x[4] - x[2]) + (-x[2] - x[1]) * (-x[3] - x[1])
    )
    assert result.value == expected
    assert result.diagram.branch == "orthogonal_restriction"
    assert result.diagram.m_prime == 2


def test_values_are_homogeneous_of_the_expected_degree():
    for space in (SG26, OG26):
        symbols = enumerate_symbols(space)
        for lam in symbols:
            for mu in symbols:
                for p in range(1, pieri_bound(space) + 1):
                    value = pieri_coefficient(space, lam, mu, p)
                    if value.is_zero:
                        continue
                    assert value.is_homogeneous()
                    assert value.degree() == codim(space, lam) + p - codim(space, mu)


def test_symplectic_classical_coefficients_count_subsets():
    # at t = 0 and top degree the coefficient is 2^(#Q)
    space = SG26
    symbols = enumerate_symbols(space)
    for lam in symbols:
        for mu in symbols:
            if not arrow(space, lam, mu):
                continue
            for p in range(1, pieri_bound(space) + 1):
                if codim(space, mu) != codim(space, lam) + p:
                    continue
                value = pieri_coefficient(space, lam, mu, p)
                d = build(space, lam, mu, p)
                assert value.terms.get((0,) * space.n, 0) == 2 ** len(d.Q)


def test_second_family_matches_the_twisted_swap(family_twist_images):
    # the tilde coefficient is the t_n -> -t_n twist of the swapped plain one
    space = OG28
    p = 2
    for lam, mu in (((4, 8), (3, 7)), ((5, 8), (2, 8)), ((3, 7), (2, 5)), ((2, 6), (1, 5))):
        plain = pieri_coefficient(
            space, swap_wall_letters(space, lam), swap_wall_letters(space, mu), p
        )
        tilde = pieri_coefficient(space, lam, mu, p, tilde=True)
        assert tilde == plain.substitute(family_twist_images(space.n))


def test_second_family_expansion_matches_the_oracle():
    # multiplying by the class of the opposite family, checked by localization
    space = OG26
    p = space.n - space.m
    s_tilde = swap_wall_letters(space, special_symbol(space, p)[0])
    engine = GkmEngine(space)
    for lam in enumerate_symbols(space):
        expansion = engine.product_expansion(lam, s_tilde)
        computed = pieri_expansion(space, lam, p, tilde=True)
        assert computed == {mu: v for mu, v in expansion.items() if not v.is_zero}


def test_critical_degree_family_sensitivity():
    # at p = n - m the two families see different Schubert classes
    assert pieri_coefficient(OG28, (4, 8), (3, 7), 2).is_zero
    assert pieri_coefficient(OG28, (4, 8), (3, 7), 2, tilde=True) == Polynomial.one(4)
    assert pieri_coefficient(OG28, (4, 8), (2, 8), 2) == Polynomial.one(4)
    assert pieri_coefficient(OG28, (4, 8), (4, 8), 2) == (
        t(2, 4) * t(3, 4)
        + t(2, 4) * t(4, 4)
        + t(3, 4) * t(4, 4)
        + t(4, 4) * t(4, 4)
    )


def test_halving_branch_is_always_exact():
    # every halving-branch pair on OG(2,7) specializes to an even polynomial
    space = OG27
    symbols = enumerate_symbols(space)
    seen = 0
    for lam in symbols:
        for mu in symbols:
            if not arrow(space, lam, mu):
                continue
            for p in range(1, pieri_bound(space) + 1):
                if codim(space, mu) > codim(space, lam) + p:
                    continue
                d = build(space, lam, mu, p)
                if d.branch != "halving":
                    continue
                pieri_coefficient(space, lam, mu, p)  # would raise if odd
                seen += 1
    assert seen > 0


def test_dropped_column_choice_does_not_matter():
    cases = [
        (OG27, (5, 7), (1, 6), 3),
        (OG27, (5, 7), (1, 6), 4),
        (OG27, (2, 7), (1, 3), 3),
        (OG28, (6, 8), (1, 7), 4),
        (OG28, (6, 8), (1, 7), 5),
        (OG28, (2, 8), (1, 3), 5),
    ]
    for space, lam, mu, p in cases:
        d = build(space, lam, mu, p)
        assert len(d.Q) >= 2
        values = {
            pieri_coefficient(space, lam, mu, p, chat=c).render() for c in d.Q
        }
        assert len(values) == 1


def test_pivot_choice_does_not_matter():
    cases = [
        (SG26, (3, 6), (1, 5), 3, [(1,), (2,)]),
        (SG26, (3, 5), (1, 4), 3, [(2,), (3,)]),
        (SG26, (2, 6), (1, 5), 2, [(1,), (2,)]),
    ]
    for space, lam, mu, p, pivots in cases:
        values = {
            pieri_coefficient(space, lam, mu, p, pivot=P).render() for P in pivots
        }
        assert len(values) == 1


# every isotropic space of rank 3 to 5, beyond the acceptance test's SMALL_SUITE
CHOICE_SPACES = [Space(lie, m, n) for lie in "BCD" for n in (3, 4, 5) for m in range(1, n + 1)]


@st.composite
def gated_pairs(draw):
    """(space, lambda, mu, p) with p >= 1 that pass compute_pieri's zero gate,
    mostly with a dropped column or a pivot set to choose."""
    space = draw(st.sampled_from(CHOICE_SPACES))
    symbols = enumerate_symbols(space)
    lam = draw(st.sampled_from(symbols))
    p = draw(st.integers(1, pieri_bound(space)))
    top = codim(space, lam) + p
    gated = [mu for mu in symbols if arrow(space, lam, mu) and codim(space, mu) <= top]
    chosen = [mu for mu in gated if (d := build(space, lam, mu, p)).dropped is not None
              or (space.lie_type == "C" and d.Q)]
    if chosen and draw(st.integers(0, 3)):
        gated = chosen
    return space, lam, draw(st.sampled_from(gated)), p


@settings(max_examples=150, deadline=None, database=None)
@given(gated_pairs())
def test_every_dropped_column_and_pivot_set_gives_the_default_value(case):
    space, lam, mu, p = case
    d = build(space, lam, mu, p)
    default = pieri_coefficient(space, lam, mu, p)
    if d.dropped is not None:
        for chat in d.Q:
            assert pieri_coefficient(space, lam, mu, p, chat=chat) == default, chat
    if space.lie_type == "C":
        mirrored = [c for c in range(1, space.n + 1) if {c, space.ambient + 1 - c} <= set(d.nu)]
        for pivot in combinations(mirrored, len(d.Q)):
            assert pieri_coefficient(space, lam, mu, p, pivot=pivot) == default, pivot


def test_chevalley_degree_matches_localization():
    for space in (Space("A", 2, 5), SG26, OG26):
        engine = GkmEngine(space)
        symbols = enumerate_symbols(space)
        for lam in symbols:
            expansion = engine.product_expansion(lam, special_symbol(space, 1)[0])
            for mu in symbols:
                mine = pieri_coefficient(space, lam, mu, 1)
                assert mine == expansion.get(mu, Polynomial.zero(engine.nvars))


def test_degree_zero_and_range_errors():
    assert pieri_coefficient(SG26, (3, 6), (3, 6), 0) == Polynomial.one(3)
    assert pieri_coefficient(SG26, (3, 6), (2, 6), 0).is_zero
    with pytest.raises(InputError, match="special-class range"):
        pieri_coefficient(SG26, (3, 6), (2, 6), 5)
    with pytest.raises(InputError, match="special-class range"):
        pieri_coefficient(SG26, (3, 6), (2, 6), -1)
    with pytest.raises(InputError, match="second special class"):
        pieri_coefficient(SG26, (3, 6), (2, 6), 1, tilde=True)
    with pytest.raises(InputError, match="second special class"):
        pieri_coefficient(OG28, (4, 8), (3, 7), 3, tilde=True)


WRONG_CHOICES = {
    "chat": ("a dropped column only exists in the orthogonal types", {"chat": 2}),
    "pivot": ("pivot replacement only applies to symplectic spaces", {"pivot": (1,)}),
}


@pytest.mark.parametrize("space, choice", [
    (Space("A", 2, 5), "chat"), (Space("A", 2, 5), "pivot"), (SG26, "chat"),
    (OG27, "pivot"), (OG28, "pivot"), (OG26, "pivot"),
])
def test_a_choice_the_type_lacks_is_refused_for_every_pair(space, choice):
    # whether or not lambda -> mu, at p = 0 and with the second special class
    message, kwargs = WRONG_CHOICES[choice]
    symbols = enumerate_symbols(space)
    seen = set()
    for lam in symbols:
        for mu in symbols:
            for p in range(pieri_bound(space) + 1):
                tildes = (False, True) if space.lie_type == "D" and p == space.n - space.m else (False,)
                for tilde in tildes:
                    with pytest.raises(InputError, match=f"^{message}$"):
                        compute_pieri(space, lam, mu, p, tilde=tilde, **kwargs)
                    seen.add((arrow(space, lam, mu), p == 0, tilde))
    assert {(True, True, False), (False, True, False), (True, False, False),
            (False, False, False)} <= seen
    assert space.lie_type != "D" or {(True, False, True), (False, False, True)} <= seen


# a dropped column or pivot set that no pair of the space takes at degree p
PAIR_FREE_FAULTS = [
    (OG27, 3, {"chat": 9}, "chat = 9 outside [2, 4]"),
    (OG27, 2, {"chat": 1}, "chat = 1 outside [2, 4]"),
    (OG27, 1, {"chat": 2}, "no column is dropped from Q for these inputs"),  # p <= n - m
    (OG27, 0, {"chat": 4}, "no column is dropped from Q for these inputs"),
    (OG26, 1, {"chat": 4}, "chat = 4 outside [2, 3]"),
    (OG26, 0, {"chat": 2}, "no column is dropped from Q for these inputs"),
    (OG28, 1, {"chat": 2}, "no column is dropped from Q for these inputs"),  # p < n - m
    (OG28, 2, {"chat": 5}, "chat = 5 outside [2, 4]"),
    (SG26, 0, {"pivot": (7,)}, "pivot column 7 outside [1, 3]"),
    (SG26, 2, {"pivot": (0, 2)}, "pivot column 0 outside [1, 3]"),
    (SG26, 1, {"pivot": (2, 2)}, "pivot columns must be distinct"),
]


@pytest.mark.parametrize("space, p, kwargs, message", PAIR_FREE_FAULTS)
def test_a_choice_no_pair_takes_is_refused_for_every_pair(space, p, kwargs, message):
    # whether or not lambda -> mu, past the zero gate or not, and with the
    # second special class where it exists: one message for every pair
    def refused():
        return pytest.raises(InputError, match=f"^{re.escape(message)}$")

    symbols = enumerate_symbols(space)
    tildes = (False, True) if space.lie_type == "D" and p == space.n - space.m else (False,)
    seen = set()
    for lam in symbols:
        for mu in symbols:
            if arrow(space, lam, mu):
                with refused():
                    build(space, lam, mu, p, **kwargs)
            for tilde in tildes:
                for call in (compute_pieri, pieri_coefficient):
                    with refused():
                        call(space, lam, mu, p, tilde=tilde, **kwargs)
                gate = [swap_wall_letters(space, s) for s in (lam, mu)] if tilde else [lam, mu]
                seen.add((arrow(space, *gate) and codim(space, mu) <= codim(space, lam) + p, tilde))
    assert {(True, False), (False, False)} <= seen
    assert len(tildes) == 1 or {(True, True), (False, True)} <= seen


def test_a_choice_some_pair_takes_is_checked_against_the_pair_only_past_the_gate():
    # chat = 2 lies in Q for 2,7 -> 1,3; 6,7 -> 1,2 has no arrow and is 0
    assert compute_pieri(OG27, (6, 7), (1, 2), 3, chat=2).value.is_zero
    assert compute_pieri(OG27, (6, 7), (1, 2), 3, chat=3).value.is_zero
    with pytest.raises(InputError, match=r"^chat = 3 is not in Q = \[2, 4\]$"):
        compute_pieri(OG27, (2, 7), (1, 3), 3, chat=3)
    # (1, 2) is one column too many for 3,6 -> 1,5; 3,6 -> 4,5 has no arrow
    assert compute_pieri(SG26, (3, 6), (4, 5), 3, pivot=(1, 2)).value.is_zero
    with pytest.raises(InputError, match="^pivot needs exactly 1 columns, got 2$"):
        compute_pieri(SG26, (3, 6), (1, 5), 3, pivot=(1, 2))


def test_thread_count_does_not_change_the_bytes(monkeypatch):
    # the library takes no thread count and never reads EQPIERI_THREADS
    result = pieri_coefficient(SG38, (2, 4, 8), (1, 3, 5), 5)
    monkeypatch.setenv("EQPIERI_THREADS", "abc")
    assert pieri_coefficient(SG38, (2, 4, 8), (1, 3, 5), 5) == result
    for call in (pieri_coefficient, compute_pieri):
        with pytest.raises(TypeError, match="threads"):
            call(SG38, (2, 4, 8), (1, 3, 5), 5, threads=2)
    with pytest.raises(TypeError, match="threads"):
        pieri_expansion(SG38, (2, 4, 8), 5, threads=2)


def test_expansion_takes_no_per_pair_choice():
    # a dropped column or pivot belongs to one pair (lambda, mu), and no
    # single choice is valid for every mu of an expansion
    with pytest.raises(TypeError, match="chat"):
        pieri_expansion(OG27, (3, 6), 3, chat=2)
    with pytest.raises(TypeError, match="pivot"):
        pieri_expansion(SG38, (2, 4, 8), 5, pivot=(1, 3))


def test_every_nonzero_small_space_value_is_certified_positive():
    for space in (SG26, OG26):
        symbols = enumerate_symbols(space)
        for lam in symbols:
            for p in range(1, pieri_bound(space) + 1):
                for mu, value in pieri_expansion(space, lam, p).items():
                    certificate = positivity_certificate(space, value)
                    assert certificate.ok, (lam, mu, p, certificate.failure)


def test_specialization_images_shape():
    images = specialization_images(OG27)
    n, N = 3, 7
    assert images[n].is_zero  # the middle weight dies in type B
    assert images[0] == Polynomial.variable(1, n)
    assert images[N - 1] == -Polynomial.variable(1, n)
    # nothing folds in type A: every weight is its own image
    assert specialization_images(GR38) == tuple(Polynomial.variable(j, 8) for j in range(1, 9))


# every type with m in {0, 1, n-1, n}, the maximal OG(3,6) and OG(4,8) among them
EVERY_M = [
    Space(*key)
    for key in (
        ("A", 0, 3), ("A", 1, 4), ("A", 3, 4), ("A", 2, 5), ("A", 3, 7),
        ("C", 0, 2), ("C", 1, 3), ("C", 2, 3), ("C", 3, 3), ("C", 3, 4),
        ("B", 0, 2), ("B", 1, 3), ("B", 2, 3), ("B", 3, 3), ("B", 1, 4), ("B", 3, 4),
        ("D", 0, 3), ("D", 1, 3), ("D", 2, 3), ("D", 3, 3),
        ("D", 1, 4), ("D", 2, 4), ("D", 3, 4), ("D", 4, 4),
    )
]


def test_expansion_is_every_nonzero_coefficient_in_symbol_order():
    for space in EVERY_M:
        symbols = enumerate_symbols(space)
        for lam in symbols:
            for p in range(pieri_bound(space) + 1):
                legal = space.lie_type == "D" and p == space.n - space.m >= 1
                for tilde in (False, True) if legal else (False,):
                    # the expansion's private path against the checked one of
                    # pieri_coefficient (compute_pieri's value): each mu present,
                    # with that value, exactly when the value is nonzero
                    expected = [
                        (mu, value)
                        for mu in symbols
                        if not (value := pieri_coefficient(space, lam, mu, p, tilde=tilde)).is_zero
                    ]
                    computed = pieri_expansion(space, lam, p, tilde=tilde)
                    assert list(computed.items()) == expected, (space, lam, p, tilde)


def test_expansion_by_the_fundamental_class_is_lambda_itself():
    # at p = 0 the codim walk of pieri_expansion holds only codim lambda,
    # where only mu = lambda passes lambda -> mu; its diagram gives 1
    for lie in "ABCD":
        for n in range(2 if lie == "D" else 1, 6 if lie == "A" else 5):
            for m in range(n + 1):
                space = Space(lie, m, n)
                one = Polynomial.one(space.torus_rank)
                for lam in enumerate_symbols(space):
                    assert pieri_expansion(space, lam, 0) == {lam: one}, (space, lam)


def test_the_diagram_of_a_maximal_symbol_with_itself_at_degree_zero_is_one():
    # on both components of OG(n,2n), p = 0 takes the sum branch over an
    # empty sum set; the orthogonal branch read 0 on half of the symbols
    for n in range(2, 5):
        space = Space("D", n, n)
        one = Polynomial.one(n)
        for lam in enumerate_symbols(space):
            d = build(space, lam, lam, 0)
            assert d.branch == "sum" and d.sum_set == (), lam
            assert eqpieri.pieri._diagram_value(space, d, False) == one, lam


CHOICES = [{"chat": c} for c in (1, 2, 3, 4, 5, 9)] + [
    {"pivot": cols} for cols in ((1,), (1, 2), (2, 3), (3,), (7,), (2, 2), (), (1, 2, 3))
]


def test_a_symbol_with_itself_at_degree_zero_goes_through_its_diagram():
    # compute_pieri has no fork for p = 0: (lambda, lambda) passes the zero
    # gate, and its one type A term is N^nu_{nu,0} = 1; a chat or pivot is
    # refused, or taken, as build refuses or takes it
    for space in EVERY_M:
        one = Polynomial.one(space.torus_rank)
        for lam in enumerate_symbols(space):
            result = compute_pieri(space, lam, lam, 0)
            assert result.diagram is not None and result.value == one, (space, lam)
            assert [term.unspecialized for term in result.terms] == [
                Polynomial.one(space.ambient)], (space, lam)
            for kwargs in CHOICES:
                try:
                    d = build(space, lam, lam, 0, **kwargs)
                except InputError as exc:
                    with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                        compute_pieri(space, lam, lam, 0, **kwargs)
                else:
                    result = compute_pieri(space, lam, lam, 0, **kwargs)
                    assert result.diagram == d and result.value == one, (space, lam, kwargs)


def test_expansion_evaluates_only_the_gate_survivors(monkeypatch):
    # the expand ops of the benchmark on SG(3,10) and OG(3,11): 144 and 176
    # pairs pass lambda -> mu and the codim window, of 1,120 pairs each
    ops = {
        Space("C", 3, 5): [
            ((7, 8, 9), 1), ((4, 5, 8), 1), ((3, 5, 7), 2), ((2, 3, 4), 2),
            ((3, 6, 9), 3), ((1, 5, 7), 3), ((3, 7, 10), 4), ((6, 8, 9), 4),
            ((6, 7, 8), 5), ((1, 3, 9), 5), ((6, 9, 10), 6), ((6, 8, 10), 6),
            ((1, 4, 5), 7), ((2, 7, 8), 7),
        ],
        Space("B", 3, 5): [
            ((2, 4, 9), 1), ((4, 5, 10), 1), ((4, 7, 11), 2), ((2, 4, 9), 2),
            ((1, 8, 10), 3), ((3, 7, 10), 3), ((3, 5, 11), 4), ((2, 9, 11), 4),
            ((5, 8, 10), 5), ((4, 9, 11), 5), ((1, 5, 10), 6), ((2, 4, 9), 6),
            ((8, 10, 11), 7), ((1, 3, 7), 7),
        ],
    }
    evaluated = []
    original = eqpieri.pieri._diagram_value

    def counting(space, d, tilde):
        evaluated.append((space, d.lam, d.mu, d.p))
        return original(space, d, tilde)

    monkeypatch.setattr(eqpieri.pieri, "_diagram_value", counting)
    for space, pairs in ops.items():
        symbols = enumerate_symbols(space)
        evaluated.clear()
        survivors = []
        for lam, p in pairs:
            pieri_expansion(space, lam, p)
            survivors += [
                (space, lam, mu, p)
                for mu in symbols
                if arrow(space, lam, mu) and codim(space, mu) <= codim(space, lam) + p
            ]
        assert evaluated == survivors
        assert 5 * len(evaluated) < len(pairs) * len(symbols)


def test_expansion_validates_its_symbol_once(monkeypatch):
    # lambda is checked once at the boundary; no survivor is checked again.
    # In type D at p >= n - m the orthogonal branch checks nu twice more
    # (_build's invariant and type_d_restriction's own check), so the type D
    # ops here stay below n - m.
    calls = []
    original = eqpieri.schubert.validate_symbol

    def counting(space, lam):
        calls.append(lam)
        return original(space, lam)

    for module in [m for name, m in sys.modules.items() if name.startswith("eqpieri")]:
        if getattr(module, "validate_symbol", None) is original:
            monkeypatch.setattr(module, "validate_symbol", counting)
    ops = [
        (Space("A", 3, 7), (3, 5, 7), 2), (Space("A", 3, 7), (5, 6, 7), 4),
        (Space("C", 3, 5), (7, 8, 9), 1), (Space("C", 3, 5), (6, 9, 10), 6),
        (Space("B", 3, 5), (5, 8, 10), 5), (Space("B", 3, 5), (8, 10, 11), 7),
        (Space("D", 2, 5), (7, 9), 1), (Space("D", 2, 5), (8, 10), 2),
        (Space("B", 2, 3), (6, 7), 0),
    ]
    for space, lam, p in ops:
        calls.clear()
        assert pieri_expansion(space, lam, p), (space, lam, p)
        assert calls == [lam], (space, lam, p)


# the expansion checks lambda and p itself, with these exact messages
EXPANSION_INPUT_ERRORS = [
    (SG38, (2, 4), 1, False, "symbol [2, 4] has 2 parts, expected m = 3"),
    (SG38, (0, 4, 8), 1, False, "lambda_1 = 0 outside [1, 8]"),
    (SG38, (4, 2, 8), 1, False, "lambda_1 = 4 not below lambda_2 = 2"),
    (SG38, (2, 4, 5), 1, False, "lambda_2+lambda_3 = 9 violates isotropy"),
    (SG38, (2, 4, "x"), 1, False, "symbol entry = 'x' is not an integer"),
    (OG27, (3, 5), 1, False, "lambda_1+lambda_2 = 8 violates isotropy"),
    (OG28, (4, 5), 2, True, "lambda_1+lambda_2 = 9 violates isotropy"),
    (Space("A", 2, 5), (1, 2, 3), 1, False, "symbol [1, 2, 3] has 3 parts, expected m = 2"),
    (SG38, (2, 4, 8), 9, False, "p = 9 is outside the special-class range [0, 5]"),
    (SG38, (2, 4, 8), -1, False, "p = -1 is outside the special-class range [0, 5]"),
    (Space("A", 2, 5), (3, 5), 4, False, "p = 4 is outside the special-class range [0, 3]"),
    (SG38, (2, 4, 8), 2.5, False, "p = 2.5 is not an integer"),
    (SG38, (2, 4, 8), "1", False, "p = '1' is not an integer"),
    (SG38, (2, 4, 8), 1, True,
     "the second special class exists only on even orthogonal spaces at p = n - m"),
    (OG28, (4, 8), 3, True,
     "the second special class exists only on even orthogonal spaces at p = n - m"),
]


@pytest.mark.parametrize("space, lam, p, tilde, message", EXPANSION_INPUT_ERRORS)
def test_expansion_refuses_bad_input_with_the_same_message(space, lam, p, tilde, message):
    with pytest.raises(InputError) as caught:
        pieri_expansion(space, lam, p, tilde=tilde)
    assert str(caught.value) == message
