"""Symbols, codimensions, orders, and special classes on small spaces."""

import re
from itertools import combinations

import pytest

from eqpieri.cli import build_parser
from eqpieri.diagram import arrow, build
from eqpieri.errors import InputError
from eqpieri.gkm import GkmEngine, fixed_point_restriction, type_d_restriction
from eqpieri.pieri import compute_pieri, pieri_coefficient, pieri_expansion
from eqpieri.polyring import Polynomial, RootBasis
from eqpieri.restrict_a import restriction_coefficient
from eqpieri.schubert import (
    Space,
    _graded_symbols,
    codim,
    enumerate_symbols,
    leq,
    own_special_class,
    pieri_bound,
    preceq,
    special_class,
    special_symbol,
    swap_wall_letters,
    type_of,
    validate_symbol,
)

GR25 = Space("A", 2, 5)
GR38 = Space("A", 3, 8)
SG26 = Space("C", 2, 3)
SG38 = Space("C", 3, 4)
OG27 = Space("B", 2, 3)
OG18 = Space("D", 1, 4)
OG28 = Space("D", 2, 4)

SMALL = [GR25, SG26, OG27, OG28]


def test_space_basics():
    assert GR38.ambient == 8 and GR38.dimension == 15 and GR38.name() == "Gr(3,8)"
    assert SG38.ambient == 8 and SG38.dimension == 12 and SG38.name() == "SG(3,8)"
    assert OG27.ambient == 7 and OG27.dimension == 7 and OG27.name() == "OG(2,7)"
    assert OG28.ambient == 8 and OG28.dimension == 9 and OG28.name() == "OG(2,8)"
    assert OG18.dimension == 6
    assert GR25.dimension == 6 and SG26.dimension == 7
    with pytest.raises(InputError):
        Space("E", 2, 4)
    with pytest.raises(InputError):
        Space("A", 6, 5)
    with pytest.raises(InputError):
        Space("D", 1, 1)
    with pytest.raises(InputError):
        Space("B", -1, 3)


def test_symbol_validation():
    assert validate_symbol(GR38, [1, 4, 8]) == (1, 4, 8)
    with pytest.raises(InputError, match="parts"):
        validate_symbol(GR38, [1, 4])
    with pytest.raises(InputError, match="outside"):
        validate_symbol(GR38, [0, 4, 8])
    with pytest.raises(InputError, match="not below"):
        validate_symbol(GR38, [4, 4, 8])
    with pytest.raises(InputError, match="isotropy"):
        validate_symbol(SG26, [3, 4])  # 3 + 4 = 7 = N + 1
    with pytest.raises(InputError, match="isotropy"):
        validate_symbol(OG27, [4, 6])  # 4 + 4 = 8 = N + 1
    # n + 1 is fine outside type B
    assert validate_symbol(OG28, [5, 8]) == (5, 8)


def run_command(*argv):
    """One CLI command with InputError left uncaught, as main() would see it."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.run(args)


def cli_symbol(sym):
    return ",".join(str(c) for c in sym)


GOOD = (3, 7)  # a symbol of OG(2,8)
GR28 = Space("A", 2, 8)
OG28_FLAGS = ("--type", "D", "--n", "4", "--m", "2")
BAD_SYMBOLS = {
    "outside": (1, 9),
    "parts": (1, 2, 3),
    "isotropy": (3, 6),  # 3 + 6 = 9 = N + 1
}
ENTRY_POINTS = {
    "cli pieri": lambda s: run_command("pieri", *OG28_FLAGS, "--lambda", cli_symbol(s),
                                       "--mu", cli_symbol(GOOD), "--p", 1),
    "cli expand": lambda s: run_command("expand", *OG28_FLAGS, "--lambda", cli_symbol(s),
                                        "--p", 1),
    "cli oracle": lambda s: run_command("oracle", *OG28_FLAGS, "--lambda", cli_symbol(GOOD),
                                        "--mu", cli_symbol(s), "--p", 1),
    "cli restrict": lambda s: run_command("restrict", *OG28_FLAGS, "--lambda", cli_symbol(s),
                                          "--p", 1),
    "cli diagram": lambda s: run_command("diagram", *OG28_FLAGS, "--lambda", cli_symbol(GOOD),
                                         "--mu", cli_symbol(s), "--p", 1),
    "compute_pieri lambda": lambda s: compute_pieri(OG28, s, GOOD, 1),
    "compute_pieri mu": lambda s: compute_pieri(OG28, GOOD, s, 1),
    "pieri_coefficient lambda": lambda s: pieri_coefficient(OG28, s, GOOD, 1),
    "pieri_coefficient mu": lambda s: pieri_coefficient(OG28, GOOD, s, 1),
    "pieri_expansion": lambda s: pieri_expansion(OG28, s, 1),
    "build lambda": lambda s: build(OG28, s, GOOD, 1),
    "build mu": lambda s: build(OG28, GOOD, s, 1),
    "restriction_coefficient": lambda s: restriction_coefficient(GR28, s, 1),
    "fixed_point_restriction mu": lambda s: fixed_point_restriction(OG28, s, GOOD),
    "fixed_point_restriction nu": lambda s: fixed_point_restriction(OG28, GOOD, s),
    "type_d_restriction": lambda s: type_d_restriction(OG28, s, 1),
    "type_d_restriction q=-1": lambda s: type_d_restriction(OG28, s, -1),
    "GkmEngine.restriction mu": lambda s: GkmEngine(OG28).restriction(s, GOOD),
    "GkmEngine.restriction nu": lambda s: GkmEngine(OG28).restriction(GOOD, s),
    "GkmEngine.restriction_vector": lambda s: GkmEngine(OG28).restriction_vector(s),
    "GkmEngine.product_expansion lambda": lambda s: GkmEngine(OG28).product_expansion(s, GOOD),
    "GkmEngine.product_expansion sigma": lambda s: GkmEngine(OG28).product_expansion(GOOD, s),
    "codim": lambda s: codim(OG28, s),
    "leq mu": lambda s: leq(OG28, s, GOOD),
    "leq lambda": lambda s: leq(OG28, GOOD, s),
    "preceq mu": lambda s: preceq(OG28, s, GOOD),
    "preceq lambda": lambda s: preceq(OG28, GOOD, s),
    "arrow lambda": lambda s: arrow(OG28, s, GOOD),
    "arrow mu": lambda s: arrow(OG28, GOOD, s),
}


@pytest.mark.parametrize("entry, fault", [
    (entry, fault)
    for entry in ENTRY_POINTS
    for fault in BAD_SYMBOLS
    if (entry, fault) != ("restriction_coefficient", "isotropy")  # none in type A
])
def test_every_entry_point_rejects_a_bad_symbol(entry, fault):
    with pytest.raises(InputError, match=fault):
        ENTRY_POINTS[entry](BAD_SYMBOLS[fault])


# each entry point with x in one integer slot, and the name its message gives
# that slot; the pairs are the worked SG(3,8) pair and a type B pair whose Q
# has two columns to drop
SG38_PAIR = ((2, 4, 8), (1, 3, 5))
INTEGER_SLOTS = {
    "validate_symbol": ("symbol entry", lambda x: validate_symbol(SG38, (2, 4, x))),
    "compute_pieri lambda": ("symbol entry", lambda x: compute_pieri(SG38, (2, 4, x), (1, 3, 5), 5)),
    "compute_pieri p": ("p", lambda x: compute_pieri(SG38, *SG38_PAIR, x)),
    "pieri_expansion p": ("p", lambda x: pieri_expansion(SG38, (2, 4, 8), x)),
    "special_class p": ("p", lambda x: special_class(SG38, x)),
    "build p": ("p", lambda x: build(SG38, *SG38_PAIR, x)),
    "build pivot": ("pivot column", lambda x: build(SG38, *SG38_PAIR, 5, pivot=(1, x))),
    "build chat": ("chat", lambda x: build(OG27, (5, 7), (1, 6), 3, chat=x)),
    "nu_I": ("column of I", lambda x: build(SG38, *SG38_PAIR, 5).nu_I((x,))),
    "Space m": ("m", lambda x: Space("C", x, 4)),
    "Space n": ("n", lambda x: Space("C", 2, x)),
    "restriction_coefficient p": ("p", lambda x: restriction_coefficient(GR25, (1, 2), x)),
    "type_d_restriction q": ("q", lambda x: type_d_restriction(OG28, (3, 7), x)),
    "Polynomial coefficient": ("coefficient", lambda x: Polynomial.constant(x, 2)),
    "Polynomial.linear coefficient": ("coefficient", lambda x: Polynomial.linear([1, x])),
    "Polynomial.variable index": ("variable index", lambda x: Polynomial.variable(x, 2)),
    "Polynomial.zero nvars": ("nvars", lambda x: Polynomial.zero(x)),
    "Polynomial.one nvars": ("nvars", lambda x: Polynomial.one(x)),
    "Polynomial.constant nvars": ("nvars", lambda x: Polynomial.constant(1, x)),
    "Polynomial.variable nvars": ("nvars", lambda x: Polynomial.variable(1, x)),
    "RootBasis rank": ("rank", lambda x: RootBasis("B", x)),
}


@pytest.mark.parametrize("x", [2.5, 2.0, "2"])
@pytest.mark.parametrize("entry", INTEGER_SLOTS)
def test_every_integer_slot_rejects_a_float_and_a_string(entry, x):
    # neither truncated (2.5 -> 2) nor parsed ("2" -> 2), and no TypeError
    what, call = INTEGER_SLOTS[entry]
    with pytest.raises(InputError, match=f"^{re.escape(f'{what} = {x!r}')} is not an integer$"):
        call(x)


def test_codim_frozen_values():
    assert codim(GR38, [1, 4, 8]) == 8
    assert codim(GR38, [1, 3, 6]) == 11
    assert codim(SG38, [2, 4, 8]) == 6
    assert codim(SG38, [1, 3, 5]) == 9
    assert codim(OG27, [3, 6]) == 3
    assert codim(OG27, [1, 6]) == 4
    assert codim(OG18, [2]) == 5
    assert codim(OG18, [1]) == 6
    assert codim(OG18, [8]) == 0
    assert codim(OG28, [3, 7]) == 4
    assert codim(OG28, [1, 3]) == 8


def test_codim_range_and_extremes():
    for space in SMALL + [GR38, SG38, OG18]:
        symbols = enumerate_symbols(space)
        dim = space.dimension
        assert codim(space, symbols[0]) == 0
        point = tuple(range(1, space.m + 1))
        assert codim(space, point) == dim
        assert all(0 <= codim(space, s) <= dim for s in symbols)


def test_symbol_counts():
    assert len(enumerate_symbols(GR25)) == 10
    assert len(enumerate_symbols(SG26)) == 12
    assert len(enumerate_symbols(OG27)) == 12
    assert len(enumerate_symbols(OG28)) == 24
    assert enumerate_symbols(Space("A", 0, 4)) == [()]


def test_enumerate_sorted_by_codim_then_lex():
    for space in SMALL:
        syms = enumerate_symbols(space)
        keys = [(codim(space, s), s) for s in syms]
        assert keys == sorted(keys)


def test_graded_symbols_equal_the_filtered_combinations():
    # every space of rank <= 4 (Gr up to N = 7), every m, maximal OG(n,2n) too
    spaces = [
        Space(lie, m, n)
        for lie in "ABCD"
        for n in range(2 if lie == "D" else 1, 8 if lie == "A" else 5)
        for m in range(n + 1)
    ]
    for space in spaces:
        N = space.ambient
        symbols = [
            s
            for s in combinations(range(1, N + 1), space.m)
            if space.lie_type == "A" or all(a + b != N + 1 for a in s for b in s)
        ]
        expected = sorted((codim(space, s), s) for s in symbols)
        assert _graded_symbols(space) == expected, space
        assert enumerate_symbols(space) == [s for _, s in expected]


def test_leq_antitone_codim():
    # leq is weakly antitone; distinct comparable symbols of equal codim
    # exist in type D (opposite families), so strictness needs preceq
    for space in SMALL:
        syms = enumerate_symbols(space)
        for lam in syms:
            for mu in syms:
                if leq(space, mu, lam):
                    assert codim(space, mu) >= codim(space, lam)
                if preceq(space, mu, lam) and codim(space, mu) == codim(space, lam):
                    assert mu == lam


def test_partial_order_axioms():
    for space in SMALL:
        syms = enumerate_symbols(space)
        for a in syms:
            assert preceq(space, a, a)
        for a in syms:
            for b in syms:
                if preceq(space, a, b) and preceq(space, b, a):
                    assert a == b
                for c in syms:
                    if preceq(space, a, b) and preceq(space, b, c):
                        assert preceq(space, a, c)


def test_type_of_frozen_values():
    assert type_of(OG18, [2]) == 0
    assert type_of(OG18, [4]) == 2
    assert type_of(OG18, [5]) == 1
    assert type_of(OG28, [3, 7]) == 0
    assert type_of(OG28, [4, 8]) == 2
    assert type_of(OG28, [1, 4]) == 1
    with pytest.raises(InputError):
        type_of(SG26, [1, 2])


def test_preceq_refines_leq_in_type_d():
    # {4,8} and {5,8} are comparable for leq but lie in different families
    assert leq(OG28, [4, 8], [5, 8])
    assert type_of(OG28, [4, 8]) == 2
    assert type_of(OG28, [5, 8]) == 1
    assert not preceq(OG28, [4, 8], [5, 8])
    # outside type D the two orders agree
    for space in (GR25, SG26, OG27):
        syms = enumerate_symbols(space)
        for a in syms:
            for b in syms:
                assert leq(space, a, b) == preceq(space, a, b)


def test_pieri_bound():
    assert pieri_bound(GR25) == 3
    assert pieri_bound(GR38) == 5
    assert pieri_bound(SG26) == 4
    assert pieri_bound(SG38) == 5
    assert pieri_bound(OG27) == 4
    assert pieri_bound(OG28) == 5
    assert pieri_bound(OG18) == 6
    assert pieri_bound(Space("A", 0, 4)) == 0
    with pytest.raises(InputError):
        special_symbol(GR25, 4)
    with pytest.raises(InputError):
        special_symbol(GR25, -1)


def test_special_symbols_frozen():
    assert special_symbol(GR38, 5) == ((1, 7, 8), 1)
    assert special_symbol(GR38, 1) == ((5, 7, 8), 5)
    assert special_symbol(SG38, 5) == ((1, 6, 7), 1)
    assert special_symbol(OG27, 3) == ((2, 7), 2)
    assert [special_symbol(OG28, p)[0] for p in range(1, 6)] == [
        (6, 8),
        (4, 8),
        (3, 8),
        (2, 8),
        (1, 7),
    ]
    assert special_symbol(OG18, 6) == ((1,), 1)
    assert special_symbol(Space("A", 0, 4), 0) == ((), 0)


def test_special_symbol_codim_is_p():
    for space in SMALL + [GR38, SG38, OG18, Space("B", 1, 4), Space("C", 3, 3), Space("D", 3, 3)]:
        for p in range(0, pieri_bound(space) + 1):
            sym, np_ = special_symbol(space, p)
            assert codim(space, sym) == p, (space, p, sym)
            if p >= 1:
                assert sym[0] == np_


def test_own_special_class_is_on_the_component_of_lambda():
    # only the maximal OG(n,2n) has two components; there the class of
    # degree p is the special class or its n <-> n+1 swap, whichever has
    # lambda's family, and it keeps codim p
    for space in SMALL + [Space("D", 2, 2), Space("D", 3, 3), Space("D", 4, 4)]:
        maximal = space.lie_type == "D" and space.m == space.n
        for p in range(0, pieri_bound(space) + 1):
            special = special_class(space, p)
            for lam in enumerate_symbols(space):
                sigma = own_special_class(space, lam, p, False)
                assert codim(space, sigma) == p
                if maximal:
                    assert type_of(space, sigma) == type_of(space, lam)
                    assert sigma in (special, swap_wall_letters(space, special))
                else:
                    assert sigma == special
    assert own_special_class(Space("D", 2, 2), (1, 2), 1, False) == (1, 2)
    assert own_special_class(Space("D", 2, 2), (2, 4), 1, False) == (1, 3)


def test_fundamental_class_is_first():
    for space in SMALL:
        assert enumerate_symbols(space)[0] == special_symbol(space, 0)[0]
