"""Localization engine: fixed-point restrictions and structure constants."""

import functools
import itertools

import pytest

from eqpieri import gkm, schubert
from eqpieri.cli import main
from eqpieri.errors import ConsistencyError, InputError
from eqpieri.gkm import (
    GkmEngine,
    act_on_vector,
    alpha_vector,
    apply_simple,
    compose,
    fixed_point_restriction,
    identity_element,
    longest_element,
    minimal_representative,
    parabolic_indices,
    reduced_word,
    right_ascent,
    simple_indices,
    symbol_to_weyl,
    type_d_restriction,
    vector_positive,
)
from eqpieri.polyring import Polynomial
from eqpieri.restrict_a import restriction_coefficient
from eqpieri.schubert import (
    Space,
    codim,
    enumerate_symbols,
    own_special_class,
    pieri_bound,
    preceq,
    special_class,
    special_symbol,
    swap_wall_letters,
    type_of,
)

GR25 = Space("A", 2, 5)
SG26 = Space("C", 2, 3)
OG27 = Space("B", 2, 3)
OG26 = Space("D", 2, 3)
OG28 = Space("D", 2, 4)
OG38 = Space("D", 3, 4)


def t(i, n):
    return Polynomial.variable(i, n)


def test_projective_line_restrictions():
    # P^1 = Gr(1,2): (2,) is the fundamental class, (1,) the point class
    space = Space("A", 1, 2)
    zero = Polynomial.zero(2)
    one = Polynomial.one(2)
    assert fixed_point_restriction(space, (2,), (2,)) == one
    assert fixed_point_restriction(space, (2,), (1,)) == one
    assert fixed_point_restriction(space, (1,), (2,)) == zero
    assert fixed_point_restriction(space, (1,), (1,)) == t(2, 2) - t(1, 2)


def _representative(space, sym):
    """The twisted minimal representative of a symbol, built from scratch."""
    lie, rank = space.lie_type, space.torus_rank
    w0 = longest_element(lie, rank)
    return minimal_representative(
        compose(w0, symbol_to_weyl(space, sym)), parabolic_indices(space, sym), lie
    )


def test_representative_lengths_equal_codimension():
    # the twisted minimal representative of lambda has length codim(lambda)
    for space in (GR25, SG26, OG27, OG26, OG28):
        for lam in enumerate_symbols(space):
            w = _representative(space, lam)
            assert len(reduced_word(w, space.lie_type)) == codim(space, lam)


def test_type_a_agreement_with_restriction_formula():
    # the subword sum reproduces the closed-form restriction coefficients
    for n in range(2, 9):
        for m in range(1, n):
            space = Space("A", m, n)
            for p in range(1, pieri_bound(space) + 1):
                s_p = special_symbol(space, p)[0]
                for nu in enumerate_symbols(space):
                    expected = restriction_coefficient(space, nu, p)
                    assert fixed_point_restriction(space, s_p, nu) == expected


def fixed_point_count(space):
    """Orbit size of the base coordinate plane under the simple reflections;
    a count of the fixed points that does not enumerate symbols."""
    if space.m == 0:
        return 1
    lie, rank = space.lie_type, space.torus_rank
    gens = [apply_simple(identity_element(rank), i, lie) for i in simple_indices(lie, rank)]
    base = frozenset(range(1, space.m + 1))
    seen = {base}
    frontier = [base]
    while frontier:
        state = frontier.pop()
        for g in gens:
            image = frozenset(g[x - 1] if x > 0 else -g[-x - 1] for x in state)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return len(seen)


def test_fixed_point_counts_match_symbol_counts():
    for space in (GR25, SG26, OG27, OG26, OG28, Space("B", 1, 3), Space("D", 1, 4)):
        assert fixed_point_count(space) == len(enumerate_symbols(space))
    # the symbols list both families, one orbit covers half of them
    maximal = Space("D", 3, 3)
    assert 2 * fixed_point_count(maximal) == len(enumerate_symbols(maximal))


def test_maximal_space_representatives_cover_both_components():
    # each component of OG(n,2n) is one W(D_n)-orbit: {1..n} and
    # {1..n-1, -n}; every symbol gets a representative in W(D_n), an even
    # number of sign changes, whose length is its codim
    for n in range(2, 6):
        maximal = Space("D", n, n)
        families = set()
        for lam in enumerate_symbols(maximal):
            u = symbol_to_weyl(maximal, lam)
            w = _representative(maximal, lam)
            assert sum(1 for x in u if x < 0) % 2 == 0
            assert sum(1 for x in w if x < 0) % 2 == 0
            assert len(reduced_word(w, "D")) == codim(maximal, lam), lam
            families.add(parabolic_indices(maximal, lam))
        assert len(families) == 2
    assert symbol_to_weyl(Space("D", 3, 3), (2, 3, 6)) == (2, 3, 1)


def _billey_restrictions(space, nu, classes):
    """The classes restricted to nu by Billey's formula, with no pruning.

    Walks every reduced subword of a reduced word of the representative of
    nu, over the whole Weyl group, and returns mu -> restriction; a class of
    the other component of OG(n,2n) restricts to zero.
    """
    lie, rank = space.lie_type, space.torus_rank
    word = reduced_word(_representative(space, nu), lie)
    roots, prefix = [], identity_element(rank)
    for i in word:
        roots.append(Polynomial.linear(act_on_vector(prefix, alpha_vector(lie, rank, i))))
        prefix = apply_simple(prefix, i, lie)
    sums = {}

    def walk(j, w, value):
        if j == len(word):
            sums[w] = sums[w] + value if w in sums else value
            return
        walk(j + 1, w, value)
        if right_ascent(w, word[j], lie):
            walk(j + 1, apply_simple(w, word[j], lie), value * roots[j])

    walk(0, identity_element(rank), Polynomial.one(rank))
    w0 = longest_element(lie, rank)
    phi = [Polynomial.variable(abs(x), rank) * Polynomial.constant(1 if x > 0 else -1, rank)
           for x in w0]
    zero = Polynomial.zero(rank)
    own = parabolic_indices(space, nu)
    return {
        mu: sums.get(_representative(space, mu), zero).substitute(phi)
        if parabolic_indices(space, mu) == own else zero
        for mu in classes
    }


@pytest.mark.parametrize(
    "space",
    # OG(2,6) and OG(3,8) have m = n-1: parabolic_indices drops two indices;
    # OG(3,6) and OG(4,8) are maximal, with one parabolic per component
    (GR25, SG26, OG27, Space("D", 1, 4), OG26, OG38, Space("D", 3, 3), Space("D", 4, 4)),
    ids=lambda space: space.name(),
)
def test_pruned_restrictions_equal_the_full_billey_sum(space):
    engine = GkmEngine(space)
    symbols = enumerate_symbols(space)
    for nu in symbols:
        expected = _billey_restrictions(space, nu, symbols)
        p_inds = parabolic_indices(space, nu)
        for x in engine._column(nu):
            assert minimal_representative(x, p_inds, space.lie_type) == x
        for mu in symbols:
            assert engine.restriction(mu, nu) == expected[mu]
            assert fixed_point_restriction(space, mu, nu) == expected[mu]


@pytest.mark.parametrize(
    "space",
    (Space("A", 3, 6), Space("B", 3, 4), Space("B", 1, 4), Space("C", 3, 4), Space("C", 1, 4),
     OG38, Space("D", 4, 4), Space("D", 2, 5), Space("D", 5, 5)),
    ids=lambda space: space.name(),
)
def test_targeted_restriction_equals_the_column(space):
    # the sum aimed at mu's representative equals the untargeted W^P column,
    # which the test above pins to the full Billey sum
    engine = GkmEngine(space)
    symbols = enumerate_symbols(space)
    for nu in symbols:
        for mu in symbols:
            assert fixed_point_restriction(space, mu, nu) == engine.restriction(mu, nu)


@pytest.mark.parametrize("nu", ((5, 12, 13, 15, 16), (1, 5, 10, 13, 16), (1, 4, 7, 8, 14)))
def test_type_d_restriction_carries_only_right_factors_of_the_target(nu, monkeypatch):
    # carrying every W^P product up to the target's length took 171, 542 and
    # 703 products here; right factors of the target take 13, 29 and 36
    calls = []
    add_product = Polynomial._add_product

    def counted(acc, a, b):
        calls.append(None)
        return add_product(acc, a, b)

    monkeypatch.setattr(Polynomial, "_add_product", counted)
    type_d_restriction(Space("D", 5, 9), nu, 11)
    assert 0 < len(calls) <= 60


def test_maximal_type_d_restriction_equals_the_reference_by_swap_and_twist(
        family_twist_images):
    maximal = Space("D", 3, 3)
    for q in range(1, pieri_bound(maximal) + 1):
        s_q = special_class(maximal, q)
        if type_of(maximal, s_q) != 1:
            s_q = swap_wall_letters(maximal, s_q)
        for nu in enumerate_symbols(maximal):
            if type_of(maximal, nu) == 1:
                expected = _billey_restrictions(maximal, nu, [s_q])[s_q]
            else:
                swapped = swap_wall_letters(maximal, nu)
                raw = _billey_restrictions(maximal, swapped, [s_q])[s_q]
                expected = raw.substitute(family_twist_images(3))
            assert type_d_restriction(maximal, nu, q) == expected


def test_second_special_class_is_the_oracles_twisted_swap_of_the_first(family_twist_images):
    # the outer symmetry of type D, in the oracle alone: multiplying lam by
    # the second special class is the n <-> n+1 swap and t_n -> -t_n twist of
    # multiplying swap(lam) by the first
    checked = 0
    for n in range(2, 6):
        twist = family_twist_images(n)
        for m in range(1, n):
            space, p = Space("D", m, n), n - m
            engine = GkmEngine(space)
            for lam in enumerate_symbols(space):
                swapped = swap_wall_letters(space, lam)
                tilde = engine.product_expansion(lam, own_special_class(space, lam, p, True))
                plain = engine.product_expansion(
                    swapped, own_special_class(space, swapped, p, False))
                assert {mu: v for mu, v in tilde.items() if not v.is_zero} == {
                    swap_wall_letters(space, mu): v.substitute(twist)
                    for mu, v in plain.items() if not v.is_zero
                }
                checked += 1
    assert checked == 296


OG18 = Space("D", 1, 4)
# the maximal OG(n,2n) included: no symbol lies below one on the other component
ORDER_SPACES = (GR25, SG26, OG27, OG26, OG18, OG28, OG38,
                Space("D", 2, 2), Space("D", 3, 3), Space("D", 4, 4), Space("D", 5, 5))


def _above(space, symbols):
    """Each symbol mapped to the set of the symbols above it (preceq)."""
    return {a: {b for b in symbols if preceq(space, a, b)} for a in symbols}


def test_support_of_restrictions_is_the_partial_order():
    # r(mu)|_nu != 0 exactly when nu lies in the Schubert variety of mu
    for space in ORDER_SPACES:
        engine = GkmEngine(space)
        symbols = enumerate_symbols(space)
        for mu in symbols:
            for nu in symbols:
                value = engine.restriction(mu, nu)
                assert (not value.is_zero) == preceq(space, nu, mu)
    # the type-D spaces among them reach symbols of both families
    for space in (OG28, OG38):
        assert {type_of(space, s) for s in enumerate_symbols(space)} >= {1, 2}


@pytest.mark.parametrize("space", ORDER_SPACES, ids=lambda space: space.name())
def test_partial_order_is_transitive(space):
    # the expansion above mu relies on it: the points above mu are closed upward
    symbols = enumerate_symbols(space)
    above = _above(space, symbols)
    for a in symbols:
        assert a in above[a]
        for b in above[a]:
            assert above[b] <= above[a], (a, b)


def _reflections(space):
    """Reflection actions on letters, with a primitive root vector each."""
    n, N = space.n, space.ambient
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            swap = {i: j, j: i, N + 1 - i: N + 1 - j, N + 1 - j: N + 1 - i}
            minus = [0] * n
            minus[i - 1], minus[j - 1] = 1, -1
            out.append((swap, minus))
            cross = {i: N + 1 - j, N + 1 - j: i, j: N + 1 - i, N + 1 - i: j}
            plus = [0] * n
            plus[i - 1], plus[j - 1] = 1, 1
            out.append((cross, plus))
        if space.lie_type in ("B", "C"):
            neg = {i: N + 1 - i, N + 1 - i: i}
            vec = [0] * n
            vec[i - 1] = 1
            out.append((neg, vec))
    return out


def test_restrictions_satisfy_divisibility_along_edges():
    # fixed points joined by a reflection have congruent restrictions
    for space in (SG26, OG27, OG26):
        engine = GkmEngine(space)
        symbols = enumerate_symbols(space)
        valid = set(symbols)
        reflections = _reflections(space)
        for mu in symbols[:6]:
            for nu in symbols:
                for image, vec in reflections:
                    other = tuple(sorted(image.get(c, c) for c in nu))
                    if other == nu or other not in valid:
                        continue
                    diff = engine.restriction(mu, nu) - engine.restriction(mu, other)
                    assert diff.try_divide(Polynomial.linear(vec)) is not None


def _products(space):
    """(lam, sigma) pairs: the first five symbols by the first two special
    classes, and on OG(n,2n) every symbol by each special class of both
    families, so also the products across the components."""
    symbols = enumerate_symbols(space)
    if space.lie_type == "D" and space.m == space.n:
        for lam in symbols:
            for p in range(1, pieri_bound(space) + 1):
                sigma = special_class(space, p)
                yield lam, sigma
                yield lam, swap_wall_letters(space, sigma)
        return
    for lam in symbols[:5]:
        for sigma in (special_symbol(space, 1)[0], special_symbol(space, 2)[0]):
            yield lam, sigma


def test_product_expansions_hold_at_every_fixed_point():
    # the expansion reads only the candidate points; the identity must hold
    # at every fixed point
    checked = 0
    for space in (SG26, OG26, GR25, OG27, OG38) + tuple(Space("D", n, n) for n in (2, 3, 4)):
        engine = GkmEngine(space)
        symbols = enumerate_symbols(space)
        for lam, sigma in _products(space):
            expansion = engine.product_expansion(lam, sigma)
            for nu in symbols:
                lhs = engine.restriction(lam, nu) * engine.restriction(sigma, nu)
                rhs = Polynomial.zero(space.torus_rank)
                for mu, coeff in expansion.items():
                    rhs = rhs + coeff * engine.restriction(mu, nu)
                assert lhs == rhs
                checked += 1
    # 10 products at each of the 78 points of the first five spaces; on
    # OG(2,4), OG(3,6) and OG(4,8), 2 * bound * 4^2, 8^2 and 16^2
    assert checked == 780 + 2 * (16 + 2 * 64 + 3 * 256)


def _special_classes(space):
    """Every special class of the space, the second family where it exists."""
    for p in range(pieri_bound(space) + 1):
        yield special_class(space, p)
        if space.lie_type == "D" and p == space.n - space.m >= 1:
            yield special_class(space, p, tilde=True)


@pytest.mark.parametrize(
    "space",
    (GR25, Space("A", 3, 6), Space("C", 1, 3), SG26, Space("C", 3, 3), Space("B", 1, 3),
     OG27, Space("B", 3, 3), OG18, OG26, OG28, OG38, Space("D", 3, 3), Space("D", 4, 4)),
    ids=lambda space: space.name(),
)
def test_expansion_above_mu_is_the_full_expansion_on_the_interval(space, monkeypatch):
    # c^mu depends only on the c^s with mu <= s: asked for mu, the expansion
    # builds columns at exactly those candidates and returns their values.
    # The full expansion's candidates, order included, are pinned to a scan
    # of every symbol, which the engine's box walk replaces.
    # The columns are dropped before each call; the DP behind them is cached
    # across calls, as its values are pinned by the Billey-sum test.
    monkeypatch.setattr(gkm, "_subword_sums", functools.lru_cache(None)(gkm._subword_sums))
    symbols = enumerate_symbols(space)
    above = _above(space, symbols)
    codims = {s: codim(space, s) for s in symbols}
    for sigma in _special_classes(space):
        reference, engine = GkmEngine(space), GkmEngine(space)
        for lam in symbols:
            full = reference.product_expansion(lam, sigma)
            bound = codims[lam] + codims[sigma]
            candidates = [
                s for s in symbols
                if codims[s] <= bound and lam in above[s] and sigma in above[s]
            ]
            assert list(full) == candidates
            for mu in symbols:
                interval = [s for s in candidates if s in above[mu]]
                engine._columns.clear()
                part = engine.product_expansion(lam, sigma, mu)
                assert set(engine._columns) == set(interval), (lam, sigma, mu)
                assert part == {s: full[s] for s in interval}


def test_expansion_and_oracle_enumerate_no_symbols(monkeypatch, capsys):
    # the candidates come from the box mu <= s <= min(lam, sigma), never
    # from a list of the space's symbols
    cases = []
    for space in (GR25, SG26, OG38, Space("D", 3, 3)):
        engine = GkmEngine(space)
        for lam in enumerate_symbols(space):
            sigma = own_special_class(space, lam, 1, False)
            for mu in enumerate_symbols(space)[::3]:
                cases.append((space, lam, sigma, mu, engine.product_expansion(lam, sigma, mu)))
    argv = ["oracle", "--type", "D", "--n", "4", "--m", "3",
            "--lambda", "4,6,8", "--mu", "2,6,8", "--p", "2"]
    assert main(argv) == 0
    expected_stdout = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("the oracle enumerated the symbols of the space")

    monkeypatch.setattr(gkm, "enumerate_symbols", refuse)
    monkeypatch.setattr(schubert, "_graded_symbols", refuse)
    for space, lam, sigma, mu, expected in cases:
        assert GkmEngine(space).product_expansion(lam, sigma, mu) == expected
    assert main(argv) == 0
    assert capsys.readouterr().out == expected_stdout != "0\n"


def test_elimination_multiplies_no_zero_factor(monkeypatch):
    # h is updated only where the eliminated class restricts to nonzero, and
    # the DP multiplies only the sums it carries; one SG(2,6) pass once made
    # 25 products with a zero factor
    calls, zero_factor = [], []
    add_product = Polynomial._add_product

    def counted(acc, a, b):
        calls.append(None)
        if a.is_zero or b.is_zero:
            zero_factor.append((a, b))
        return add_product(acc, a, b)

    monkeypatch.setattr(Polynomial, "_add_product", counted)
    for space in (GR25, Space("A", 3, 6), SG26, Space("C", 3, 3), OG27, Space("B", 3, 3),
                  OG26, OG28, OG38, Space("D", 4, 4)):
        engine = GkmEngine(space)
        for lam in enumerate_symbols(space):
            for sigma in _special_classes(space):
                engine.product_expansion(lam, sigma)
    assert zero_factor == [] and len(calls) > 5000


def test_structure_constants_are_symmetric_in_the_factors():
    engine = GkmEngine(SG26)
    a, b = (3, 6), (2, 4)
    assert engine.product_expansion(a, b) == engine.product_expansion(b, a)


def test_diagonal_coefficient_is_the_special_class_restriction():
    s_1 = special_symbol(GR25, 1)[0]
    lam = (2, 5)
    value = GkmEngine(GR25).product_expansion(lam, s_1)[lam]
    assert value == fixed_point_restriction(GR25, s_1, lam)


def test_even_orthogonal_restriction_inner_value():
    # the quantity driving the same-type reduction branch, frozen
    inner = type_d_restriction(OG28, (1, 2), 3)
    x = [None] + [t(i, 4) for i in range(1, 5)]
    expected = (-x[1] - x[2]) * (
        (-x[4] - x[2]) * (x[4] - x[2]) + (-x[2] - x[1]) * (-x[3] - x[1])
    )
    assert inner == expected


def test_maximal_even_orthogonal_corner_parity():
    # two maximal isotropic planes meet in a point exactly when their
    # intersection with the reference family member has odd dimension
    maximal = Space("D", 4, 4)
    on = Polynomial.one(4)
    off = Polynomial.zero(4)
    assert type_d_restriction(maximal, (2, 3, 4, 8), 0) == on
    assert type_d_restriction(maximal, (3, 4, 7, 8), 0) == off
    assert type_d_restriction(maximal, (1, 3, 5, 7), 0) == off
    assert type_d_restriction(maximal, (1, 2, 3, 4), 0) == off
    assert type_d_restriction(maximal, (1, 2, 4, 6), 0) == on
    # q >= 1 restricts the incidence class of nu's own family
    assert type_d_restriction(maximal, (2, 3, 4, 8), 1) == -t(2, 4) - t(3, 4)
    assert type_d_restriction(maximal, (5, 6, 7, 8), 2) == off


def test_reduced_words_multiply_back():
    for space in (SG26, OG26, OG28):
        lie, rank = space.lie_type, space.n
        w0 = longest_element(lie, rank)
        w = identity_element(rank)
        for i in reduced_word(w0, lie):
            w = apply_simple(w, i, lie)
        assert w == w0


def _weyl_group(lie, rank):
    """Every element of W(lie_rank) as a signed permutation."""
    signs = [(1,) * rank] if lie == "A" else list(itertools.product((1, -1), repeat=rank))
    for perm in itertools.permutations(range(1, rank + 1)):
        for sign in signs:
            if lie != "D" or sign.count(-1) % 2 == 0:
                yield tuple(s * x for s, x in zip(sign, perm))


@pytest.mark.parametrize(
    "space",
    # type A; m = 1, n-1 and n in types B, C and D; both components of OG(n,2n)
    (GR25, Space("A", 3, 6), Space("B", 1, 3), OG27, Space("B", 3, 3), Space("C", 1, 3),
     SG26, Space("C", 3, 3), OG18, OG38, Space("D", 4, 4), OG26, Space("D", 3, 3)),
    ids=lambda space: space.name(),
)
def test_parabolic_blocks_are_the_definition_of_w_p(space):
    # Deodhar's lemma: for x in W^P and s_i x longer than x, s_i x leaves
    # W^P exactly when the letters of x^-1 read for alpha_i are blocked
    lie, rank = space.lie_type, space.torus_rank
    one = identity_element(rank)
    outcomes = []
    for p_inds in {parabolic_indices(space, s) for s in enumerate_symbols(space)}:
        blocks = gkm._parabolic_blocks(lie, rank, p_inds)
        for x in _weyl_group(lie, rank):
            if minimal_representative(x, p_inds, lie) != x:
                continue
            x_inv = gkm._inverse(x)
            for i in simple_indices(lie, rank):
                if not right_ascent(x_inv, i, lie):
                    continue
                y = compose(apply_simple(one, i, lie), x)  # s_i x
                where, blocked = blocks[i]
                leaves = minimal_representative(y, p_inds, lie) != y
                assert (x_inv[where] in blocked) == leaves, (p_inds, x, i)
                outcomes.append(leaves)
    assert set(outcomes) == {False, True}


@pytest.mark.parametrize("lie", "ABCD")
def test_right_ascent_equals_the_sign_of_the_moved_root(lie):
    # reference: w s_i is longer exactly when w(alpha_i) is a positive root
    for rank in range(2, 6):
        signs = [(1,) * rank] if lie == "A" else list(itertools.product((1, -1), repeat=rank))
        for perm in itertools.permutations(range(1, rank + 1)):
            for sign in signs:
                w = tuple(s * x for s, x in zip(sign, perm))
                for i in simple_indices(lie, rank):
                    root = act_on_vector(w, alpha_vector(lie, rank, i))
                    assert right_ascent(w, i, lie) == vector_positive(root), (w, i)
    with pytest.raises(InputError):
        right_ascent((2, 1, 3), 3, "A")


def test_reduced_word_rejects_a_non_permutation():
    # _coset trusts its symbol; (3, 6) is not isotropic on OG(2,8)
    bad = GkmEngine(OG28)._coset((3, 6))[1]
    assert bad == (3, -3, 4, -2, -1)
    for w, lie in (((1, 1, 2), "B"), (bad, "D")):
        with pytest.raises(ConsistencyError, match="not a signed permutation"):
            reduced_word(w, lie)
