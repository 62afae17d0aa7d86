"""Exactness, ring laws, division, serialization, and positivity certificates."""

import random
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqpieri.errors import ConsistencyError, InputError
from eqpieri.gkm import alpha_vector
from eqpieri.pieri import pieri_coefficient, positivity_certificate
from eqpieri.polyring import (
    _LIMIT,
    Polynomial,
    PositivityCertificate,
    RootBasis,
    root_positivity_certificate,
)
from eqpieri.schubert import Space


def t(i, nvars):
    return Polynomial.variable(i, nvars)


def const(value, nvars):
    return Polynomial.constant(value, nvars)


def power(x, e):
    """x^e for e >= 1 by repeated squaring, never squaring past x^e."""
    result = Polynomial.one(x.nvars)
    while True:
        if e & 1:
            result = result * x
        e >>= 1
        if not e:
            return result
        x = x * x


@pytest.fixture(scope="session")
def random_poly(polynomial):
    def draw(rng, nvars, max_terms=6, max_exp=3, max_coeff=9):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            exp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
            terms[exp] = rng.randint(-max_coeff, max_coeff)
        return polynomial(nvars, terms)

    return draw


def test_construction_drops_zeros_and_validates():
    assert Polynomial.linear([3, 0]).terms == {(1, 0): 3}
    assert Polynomial.constant(0, 2).is_zero
    assert Polynomial.zero(3).is_zero
    assert Polynomial.one(3).terms.get((0, 0, 0), 0) == 1
    with pytest.raises(InputError):
        Polynomial.variable(3, 2)
    with pytest.raises(InputError):
        Polynomial.zero(-1)
    # the named constructors are the only way in, and ints are no operands
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 3})
    for op in (add, sub, mul):
        with pytest.raises(TypeError):
            op(t(1, 2), 2)
        with pytest.raises(TypeError):
            op(2, t(1, 2))


def test_ring_laws_at_random_points(evaluate, random_poly):
    rng = random.Random(20260815)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        p = random_poly(rng, nvars)
        q = random_poly(rng, nvars)
        r = random_poly(rng, nvars)
        point = [rng.randint(-5, 5) for _ in range(nvars)]
        pv, qv, rv = evaluate(p, point), evaluate(q, point), evaluate(r, point)
        assert evaluate(p + q, point) == pv + qv
        assert evaluate(p - q, point) == pv - qv
        assert evaluate(p * q, point) == pv * qv
        assert evaluate((p + q) * r, point) == (pv + qv) * rv
        assert evaluate(-p, point) == -pv
        assert evaluate(p * const(3, nvars) + const(2, nvars), point) == 3 * pv + 2
        # __sub__ runs its own loop, not p + (-q)
        assert p - q == p + (-q)
        assert (p - q) + q == p
        assert (p - p).is_zero
        assert q - p == -(p - q)
    assert p + q == q + p
    assert p * q == q * p


def test_substitute_commutes_with_evaluation(evaluate, random_poly):
    rng = random.Random(99)
    for _ in range(50):
        p = random_poly(rng, 3)
        images = [random_poly(rng, 2, max_terms=3, max_exp=2) for _ in range(3)]
        point = [rng.randint(-4, 4) for _ in range(2)]
        via_sub = evaluate(p.substitute(images), point)
        via_eval = evaluate(p, [evaluate(img, point) for img in images])
        assert via_sub == via_eval
    # signed-variable maps: every image is 0 or +-1 times one variable
    for _ in range(100):
        p = random_poly(rng, 4, max_terms=8)
        images = [const(rng.choice([1, -1]), 2) * t(rng.randint(1, 2), 2) for _ in range(4)]
        if rng.random() < 0.5:
            images[rng.randrange(4)] = Polynomial.zero(2)
        assert p.substitute(images) == expand_by_products(p, images)
    n = 3
    x, y, z = t(1, n), t(2, n), t(3, n)
    to_xy = [t(1, 2), Polynomial.zero(2), -t(2, 2)]
    # a zero image at exponent 0 keeps the term, at exponent > 0 drops it
    assert (x + y * z).substitute(to_xy) == t(1, 2)
    # negation flips odd exponents only
    assert (x * z * z * z + z * z).substitute(to_xy) == (
        -(t(1, 2) * t(2, 2) * t(2, 2) * t(2, 2)) + t(2, 2) * t(2, 2)
    )
    # two sources onto one target with opposite signs cancel
    fold = [t(1, 1), -t(1, 1)]
    three, five = const(3, 2), const(5, 2)
    p = t(1, 2) * t(1, 2) * three - t(1, 2) * t(2, 2) * three + t(2, 2) * t(2, 2) * five + t(2, 2)
    assert p.substitute(fold) == expand_by_products(p, fold)
    assert p.substitute(fold).terms == {(2,): 11, (1,): -1}
    assert (t(1, 2) + t(2, 2)).substitute(fold).is_zero
    # a scaled image scales each power of its variable
    scaled = [t(1, 2) * const(2, 2), Polynomial.zero(2), -t(2, 2)]
    assert (x * x * z).substitute(scaled).terms == {(2, 1): -4}
    constant = Polynomial.constant(7, 0)
    assert constant.substitute([]) == constant
    with pytest.raises(InputError):
        x.substitute(to_xy[:2])
    with pytest.raises(InputError):
        x.substitute([t(1, 2), t(1, 3), -t(1, 2)])
    with pytest.raises(InputError):
        x.substitute([t(1, 2), t(1, 2) + t(2, 2), t(1, 3)])


def expand_by_products(p, images):
    """Reference substitution built from * and + alone."""
    result = Polynomial.zero(images[0].nvars)
    for exp, coeff in p.terms.items():
        term = Polynomial.constant(coeff, images[0].nvars)
        for image, e in zip(images, exp):
            for _ in range(e):
                term = term * image
        result = result + term
    return result


def scaled_t_images(lie, n):
    """Images of denominator_scale * t_i as linear forms in the basis
    variables of the comment block in polyring (type A: v_1..v_(n-1), w)."""
    def form(coeffs):
        return Polynomial.linear([coeffs.get(j, 0) for j in range(1, n + 1)])

    if lie == "A":
        return [form({n: 1, **{j: 1 for j in range(1, i)}}) for i in range(1, n + 1)]
    if lie == "B":
        return [form({j: -1 for j in range(i, n + 1)}) for i in range(1, n + 1)]
    if lie == "C":
        return [form({**{j: -2 for j in range(i, n)}, n: -1}) for i in range(1, n + 1)]
    return [
        form({**{j: -2 for j in range(i, n - 1)}, n - 1: -1, n: -1}) for i in range(1, n)
    ] + [form({n - 1: 1, n: -1})]


@st.composite
def homogeneous_and_root_images(draw, max_n=6):
    """The terms of a homogeneous polynomial of degree <= 9 in the n = 1..max_n
    variables of a root basis of type A-D, the type, and that basis's scaled t
    images; the zero polynomial and the constants are among them."""
    lie = draw(st.sampled_from("ABCD"))
    n = draw(st.integers(2 if lie == "D" else 1, max_n))
    degree = draw(st.integers(0, 9))
    monomial = st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)
    terms = {}
    for factors, coeff in draw(st.lists(st.tuples(monomial, st.integers(-9, 9)), max_size=5)):
        terms[tuple(factors.count(i) for i in range(n))] = coeff
    return n, terms, lie, scaled_t_images(lie, n)


@settings(max_examples=150, deadline=None, database=None)
@given(homogeneous_and_root_images())
def test_substitute_equals_products_over_root_images(polynomial, case):
    n, terms, _, images = case
    p = polynomial(n, terms)
    assert p.substitute(images) == expand_by_products(p, images)


@settings(max_examples=300, deadline=None, database=None)
@given(homogeneous_and_root_images(max_n=8))
@example((3, {}, "D", scaled_t_images("D", 3)))
@example((4, {(0, 0, 0, 0): -5}, "C", scaled_t_images("C", 4)))
def test_basis_steps_equal_substitution_of_the_scaled_images(polynomial, case):
    n, terms, lie, images = case
    p = polynomial(n, terms)
    assert RootBasis(lie, n).scaled_in_basis(p) == p.substitute(images)


def test_scaled_images_are_the_negated_simple_roots_inverted():
    # substituting v_i = -alpha_i (and w = t_1) into the image of t_i gives
    # denominator_scale * t_i back
    for lie in "ABCD":
        for n in range(2 if lie == "D" else 1, 7):
            basis = RootBasis(lie, n)
            roots = [-Polynomial.linear(alpha_vector(lie, n, i)) for i in range(1, n + (lie != "A"))]
            if lie == "A":
                roots.append(t(1, n))
            scale = const(basis.denominator_scale, n)
            assert [image.substitute(roots) for image in scaled_t_images(lie, n)] == [
                scale * t(i, n) for i in range(1, n + 1)
            ]


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_substitute_equals_products_over_nonlinear_images(random_poly, seed):
    rng = random.Random(seed)
    p = random_poly(rng, rng.randint(1, 4))
    target = rng.randint(1, 3)
    images = [random_poly(rng, target, max_terms=3, max_exp=2) for _ in range(p.nvars)]
    assert p.substitute(images) == expand_by_products(p, images)
    assert Polynomial.zero(p.nvars).substitute(images) == Polynomial.zero(target)


def test_degree_and_homogeneity():
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.one(2).degree() == 0
    p = t(1, 2) * t(2, 2) + t(1, 2) * t(1, 2)
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert not (p + Polynomial.one(2)).is_homogeneous()


def test_known_quadratic_expansion():
    # (t2 - t1)(t5 - t1) over five variables
    n = 5
    p = (t(2, n) - t(1, n)) * (t(5, n) - t(1, n))
    assert p.terms == {
        (0, 1, 0, 0, 1): 1,
        (1, 1, 0, 0, 0): -1,
        (1, 0, 0, 0, 1): -1,
        (2, 0, 0, 0, 0): 1,
    }
    assert p.render() == "t1^2 - t1*t2 - t1*t5 + t2*t5"


def test_division_exact_and_inexact():
    n = 3
    two, three = const(2, n), const(3, n)
    p = (t(1, n) + two * t(2, n)) * (t(2, n) - t(3, n)) * three
    d = t(1, n) + two * t(2, n)
    q = p.try_divide(d)
    assert q == (t(2, n) - t(3, n)) * three
    assert q * d == p
    assert (t(1, n) + t(2, n)).try_divide(t(1, n)) is None
    assert (three * t(1, n)).try_divide(two * t(1, n)) is None
    assert Polynomial.zero(n).try_divide(d) == Polynomial.zero(n)
    with pytest.raises(InputError):
        p.try_divide(Polynomial.zero(n))
    with pytest.raises(ConsistencyError):
        (t(1, n) + t(2, n)).divide_exact(t(1, n), context="unit test")


def test_random_products_divide_back(random_poly):
    rng = random.Random(424242)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars, max_terms=4, max_exp=2)
        b = random_poly(rng, nvars, max_terms=4, max_exp=2)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).try_divide(a) == b


def test_json_term_order():
    p = t(1, 2) * t(1, 2) * t(1, 2) - const(2, 2) * t(2, 2) + const(5, 2)
    data = p.to_json_dict()
    assert data["nvars"] == 2
    # leading (highest graded-lex) term first
    assert data["terms"][0] == {"coeff": 1, "exp": [3, 0]}
    assert data["terms"][-1] == {"coeff": 5, "exp": [0, 0]}


def test_product_degree_past_the_field_limit_raises():
    below = power(t(1, 2), _LIMIT - 1)
    assert below.terms == {(_LIMIT - 1, 0): 1}
    assert (below * t(1, 2)).terms == {(_LIMIT, 0): 1}
    assert (below * t(2, 2)).terms == {(_LIMIT - 1, 1): 1}
    top = power(t(2, 2), _LIMIT)
    assert top.degree() == _LIMIT
    assert (top * const(3, 2)).terms == {(0, _LIMIT): 3}
    assert top * Polynomial.one(2) == top
    with pytest.raises(InputError):
        top * t(2, 2)
    with pytest.raises(InputError):
        below * (t(1, 2) * t(2, 2) + Polynomial.one(2))


def test_try_divide_refuses_a_negative_quotient_exponent():
    x, y, z = t(1, 3), t(2, 3), t(3, 3)
    # same total degree, so only a per-variable field goes negative
    assert (x * x * y).try_divide(x * y * y) is None
    assert x.try_divide(y) is None
    assert (x * z * z).try_divide(y * z) is None
    assert (x * x * y).try_divide(x * y) == x
    assert (y * z).try_divide(x * y * z) is None


# -- the packed core against a tuple-keyed reference -----------------------------


def _ref_key(exp):
    return (sum(exp), exp)


def ref_add(a, b):
    out = dict(a)
    for exp, coeff in b.items():
        new = out.get(exp, 0) + coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def ref_mul(a, b):
    out = {}
    for exp1, c1 in a.items():
        for exp2, c2 in b.items():
            out = ref_add(out, {tuple(map(add, exp1, exp2)): c1 * c2})
    return out


def ref_divide(a, d):
    dlead = max(d, key=_ref_key)
    rem, quotient = dict(a), {}
    while rem:
        lead = max(rem, key=_ref_key)
        exp = tuple(map(sub, lead, dlead))
        if rem[lead] % d[dlead] or min(exp, default=0) < 0:
            return None
        qc = rem[lead] // d[dlead]
        quotient[exp] = qc
        rem = ref_add(rem, ref_mul({exp: -qc}, d))
    return quotient


def ref_substitute(a, images, target):
    if not images:
        return a
    out = {}
    for exp, coeff in a.items():
        term = {(0,) * target: coeff}
        for image, e in zip(images, exp):
            for _ in range(e):
                term = ref_mul(term, image)
        out = ref_add(out, term)
    return out


def ref_sorted(a):
    return [(exp, a[exp]) for exp in sorted(a, key=_ref_key, reverse=True)]


def ref_render(a, prefix="t", names=None):
    parts = []
    for exp, coeff in ref_sorted(a):
        mono = "*".join((names[i] if names else f"{prefix}{i + 1}") + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exp) if e)
        body = mono if mono and abs(coeff) == 1 else "*".join(filter(None, [str(abs(coeff)), mono]))
        sign = ("" if coeff > 0 else "-") if not parts else ("+ " if coeff > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def term_dicts(nvars, max_exp, max_terms):
    exp = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exp, st.integers(-9, 9).filter(bool), max_size=max_terms)


@st.composite
def packed_cases(draw):
    nvars = draw(st.integers(0, 9))
    target = draw(st.integers(0, 3))
    a, b = draw(term_dicts(nvars, 5, 6)), draw(term_dicts(nvars, 3, 4))
    images = [draw(term_dicts(target, 1, 3)) for _ in range(nvars)]
    return nvars, a, b, target, images


@settings(max_examples=200, deadline=None, database=None)
@given(packed_cases())
def test_packed_core_equals_the_tuple_reference(polynomial, case):
    nvars, a, b, target, images = case
    pa, pb = polynomial(nvars, a), polynomial(nvars, b)
    assert pa.terms == a and pb.terms == b
    assert (pa + pb).terms == ref_add(a, b)
    assert (pa - pb).terms == ref_add(a, {exp: -c for exp, c in b.items()})
    product = ref_mul(a, b)
    assert (pa * pb).terms == product
    if b:
        quotient = ref_divide(a, b)
        assert (pa.try_divide(pb) is None) == (quotient is None)
        if quotient is not None:
            assert pa.try_divide(pb).terms == quotient
        assert (pa * pb).try_divide(pb).terms == ref_divide(product, b) == a
    pimages = [polynomial(target, image) for image in images]
    for p, ref in ((pa, a), (pb, b)):
        assert p.substitute(pimages).terms == ref_substitute(ref, images, target)
        degrees = {sum(exp) for exp in ref}
        assert p.degree() == max(degrees, default=-1)
        assert p.is_homogeneous() == (len(degrees) <= 1)
        assert p.sorted_terms() == ref_sorted(ref)
        assert p.render() == ref_render(ref)
        assert p.to_json_dict() == {
            "nvars": nvars,
            "terms": [{"coeff": c, "exp": list(exp)} for exp, c in ref_sorted(ref)],
        }


@st.composite
def add_product_cases(draw):
    """acc, a and b on one ring; acc often cancels part or all of a*b."""
    nvars = draw(st.integers(0, 4))
    a, b = draw(term_dicts(nvars, 3, 4)), draw(term_dicts(nvars, 2, 3))
    acc = draw(term_dicts(nvars, 5, 5))
    cancel = draw(st.sampled_from(["none", "part", "all"]))
    if cancel != "none":
        product = ref_mul(a, b)
        for exp, coeff in product.items():
            if cancel == "all" or draw(st.booleans()):
                acc[exp] = -coeff
    return nvars, acc, a, b


@settings(max_examples=200, deadline=None, database=None)
@given(add_product_cases())
@example((2, {}, {}, {}))
@example((2, {(1, 0): 1}, {}, {(0, 1): 2}))
@example((2, {(1, 1): -1}, {(1, 0): 1}, {(0, 1): 1}))
def test_add_product_is_sum_with_the_product(polynomial, case):
    nvars, acc, a, b = case
    pacc, pa, pb = (polynomial(nvars, terms) for terms in (acc, a, b))
    before = [dict(p._terms) for p in (pacc, pa, pb)]
    result = pacc._add_product(pa, pb)
    assert result == pacc + pa * pb
    assert result.terms == ref_add(acc, ref_mul(a, b))
    assert all(result._terms.values())
    assert [p._terms for p in (pacc, pa, pb)] == before
    assert pacc._add_product(pb, pa) == result
    assert (-(pa * pb))._add_product(pa, pb).is_zero


def test_add_product_checks_rings_and_the_degree_limit():
    x, y = t(1, 2), t(2, 2)
    one3 = Polynomial.one(3)
    for acc, a, b in ((one3, x, y), (x, one3, y), (x, y, one3)):
        with pytest.raises(InputError, match="mixed variable counts"):
            acc._add_product(a, b)
    top = power(x, _LIMIT)
    assert x._add_product(top, Polynomial.one(2)) == x + top
    with pytest.raises(InputError, match="product degree exceeds"):
        Polynomial.zero(2)._add_product(top, y)
    with pytest.raises(InputError, match="product degree exceeds"):
        x._add_product(power(y, 2), top)


def test_render_forms():
    assert Polynomial.zero(2).render() == "0"
    assert (const(4, 1) * t(1, 1) * t(1, 1)).render() == "4*t1^2"
    assert (const(2, 1) - t(1, 1)).render() == "-t1 + 2"
    assert (t(2, 2) - t(1, 2)).render(prefix="s") == "-s1 + s2"
    assert t(1, 2).render(names=["x", "y"]) == "x"
    p = const(-3, 3) * t(1, 3) * t(3, 3) * t(3, 3) + t(2, 3) - const(7, 3)
    assert p.render(names=["v1", "v2", "w"]) == "-3*v1*w^2 + v2 - 7"
    assert p.render(prefix="v") == "-3*v1*v3^2 + v2 - 7"
    assert const(-1, 0).render() == "-1"
    assert Polynomial.zero(3).render(names=["x", "y", "z"]) == "0"
    for q in (p, Polynomial.zero(3)):  # zero checks its names like any other
        for names in (["x"], ["x", "y"], ["x", "y", "z", "u"]):
            with pytest.raises(InputError, match="^wrong number of variable names$"):
                q.render(names=names)


@st.composite
def render_cases(draw):
    nvars = draw(st.integers(0, 12))
    names = draw(st.none() | st.lists(st.sampled_from(["x", "y1", "w", "v10"]), min_size=nvars,
                                      max_size=nvars))
    return nvars, draw(term_dicts(nvars, 4, 6)), draw(st.sampled_from(["t", "v", "s"])), names


@settings(max_examples=300, deadline=None, database=None)
@given(render_cases())
def test_render_equals_the_tuple_reference(polynomial, case):
    nvars, terms, prefix, names = case
    p = polynomial(nvars, terms)
    assert p.render(prefix=prefix, names=names) == ref_render(terms, prefix, names)


def assert_round_trip(cert, basis, p):
    # v_i = -alpha_i over t_1..t_n from the oracle's root table, and in type
    # A the slack variable w = t_1
    n, lie = basis.n, basis.lie_type
    roots = [-Polynomial.linear(alpha_vector(lie, n, i)) for i in range(1, n + (lie != "A"))]
    if lie == "A":
        roots.append(t(1, n))
    assert cert.expansion.substitute(roots) == p


def test_certificate_type_a():
    basis = RootBasis("A", 5)
    n = 5
    p = (t(2, n) - t(1, n)) * (t(5, n) - t(1, n))
    cert = root_positivity_certificate(p, basis)
    assert cert.ok and cert.scale == 1
    assert_round_trip(cert, basis, p)
    # t1 - t2 is minus a negated simple root
    bad = root_positivity_certificate(t(1, n) - t(2, n), basis)
    assert not bad.ok and "negative coefficient" in bad.failure
    # t1 + t2 is not in the root span at all
    off = root_positivity_certificate(t(1, n) + t(2, n), basis)
    assert not off.ok and "root span" in off.failure


def test_certificate_type_b():
    basis = RootBasis("B", 3)
    n = 3
    p = t(1, n) * t(3, n) + t(1, n) * t(1, n)
    cert = root_positivity_certificate(p, basis)
    assert cert.ok and cert.scale == 1
    assert_round_trip(cert, basis, p)
    # -t3 is the negated simple root v3 itself; +t3 is not positive
    assert root_positivity_certificate(-t(3, n), basis).ok
    assert not root_positivity_certificate(t(3, n), basis).ok


def test_certificate_type_c():
    basis = RootBasis("C", 4)
    p = const(4, 4) * t(1, 4) * t(1, 4)
    cert = root_positivity_certificate(p, basis)
    assert cert.ok and cert.scale == 4
    # 4 t1^2 = (2v1 + 2v2 + 2v3 + v4)^2
    assert cert.expansion.terms[(2, 0, 0, 0)] == 4
    assert cert.expansion.terms[(0, 0, 0, 2)] == 1
    assert cert.expansion.terms[(1, 1, 0, 0)] == 8
    assert_round_trip(cert, basis, p)
    # -t1 in C_1 is half a root: integrality must fail
    half = root_positivity_certificate(-t(1, 1), RootBasis("C", 1))
    assert not half.ok and "divisible" in half.failure


def test_certificate_type_d():
    basis = RootBasis("D", 2)
    p = t(1, 2) * t(1, 2) - t(2, 2) * t(2, 2)
    cert = root_positivity_certificate(p, basis)
    assert cert.ok and cert.scale == 4
    assert cert.expansion.terms == {(1, 1): 1}
    assert_round_trip(cert, basis, p)
    # t2 - t1 is the negated simple root v1; its negative is not positive
    assert root_positivity_certificate(t(2, 2) - t(1, 2), basis).ok
    assert not root_positivity_certificate(t(1, 2) - t(2, 2), basis).ok


def test_certificate_takes_few_binomial_steps(monkeypatch):
    # N^{123}_{123,8} on SG(3,12): 88 terms of degree 8.  The elementary
    # shifts take 3,874 binomial steps (one per term and power of the new
    # variable) and form no product; Horner's substitution of the scaled
    # images multiplied 18,975 term pairs.
    space = Space("C", 3, 6)
    p = pieri_coefficient(space, (1, 2, 3), (1, 2, 3), 8)
    assert len(p.terms) == 88 and p.degree() == 8
    steps, products = [0], [0]
    shift, product = Polynomial._shift, Polynomial.__mul__

    def counting_shift(q, i, j, c):
        steps[0] += sum(exp[i] + 1 for exp in q.terms)
        return shift(q, i, j, c)

    def counting_product(a, b):
        products[0] += 1
        return product(a, b)

    monkeypatch.setattr(Polynomial, "_shift", counting_shift)
    monkeypatch.setattr(Polynomial, "__mul__", counting_product)
    cert = positivity_certificate(space, p)
    assert cert.ok and 0 < steps[0] <= 5_000 and products[0] == 0
    monkeypatch.undo()
    assert_round_trip(cert, RootBasis("C", space.torus_rank), p)


def test_certificate_failure_messages():
    def failure(p, lie, n):
        cert = root_positivity_certificate(p, RootBasis(lie, n))
        assert not cert.ok and cert.expansion is None
        return cert.failure

    assert failure(t(1, 5) + t(2, 5), "A", 5) == "term w lies outside the root span"
    assert failure(t(1, 5) - t(2, 5), "A", 5) == "negative coefficient -1 on v1"
    assert failure(t(1, 4) * t(4, 4) + t(2, 4) * t(2, 4), "D", 4) == "negative coefficient -2 on v1*v3"
    assert failure(-t(1, 1), "C", 1) == "coefficient 1 on v1 not divisible by 2"
    assert failure(t(1, 4) * t(3, 4), "D", 4) == "coefficient 2 on v1*v3 not divisible by 4"
    assert failure(t(1, 4) * t(3, 4), "C", 4) == "coefficient 2 on v1*v4 not divisible by 4"


def test_certificate_edge_cases():
    basis = RootBasis("C", 2)
    zero = root_positivity_certificate(Polynomial.zero(2), basis)
    assert zero.ok and zero.expansion.is_zero
    with pytest.raises(InputError):
        root_positivity_certificate(t(1, 2) + Polynomial.one(2), basis)
    with pytest.raises(InputError):
        root_positivity_certificate(t(1, 3), basis)
    with pytest.raises(InputError):
        RootBasis("E", 8)
    with pytest.raises(InputError):
        RootBasis("D", 1)
    data = zero.to_json_dict()
    assert data["ok"] is True and data["scale"] == 1
    assert isinstance(zero, PositivityCertificate)
