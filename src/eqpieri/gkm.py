"""Fixed-point localization oracle for Schubert structure constants.

This module is deliberately independent of the Pieri machinery: it knows
nothing about cuts, reduction diagrams, or specialization maps.  It
computes restrictions of Schubert classes to torus fixed points from
reduced words in the Weyl group, and extracts structure constants by
triangular expansion over the fixed-point lattice.  Agreement between the
two pipelines is therefore meaningful evidence that both are right.

Conventions.  Weyl group elements are signed permutations in one-line
notation: w[i-1] = w(epsilon_i), a signed index (type A never uses
signs).  Multiplication composes functions, and right multiplication by
the simple reflection s_i edits positions, so descents are read off the
one-line word.  A Schubert symbol maps to the minimal coset
representative u_lam whose first m letters are the (signed) letters of
the symbol; restrictions use the twisted representative w0 * u_lam.
OG(n,2n) has two components, the W(D_n)-orbits of {1..n} and of
{1..n-1, -n}; a symbol on the second has the last letter of u_lam negated,
and its parabolic subgroup omits s_(n-1) instead of s_n.  A class of one
component restricts to zero on the other.  The class [X_mu]^T
restricted to the fixed point nu is Billey's sum, over
reduced subwords of a fixed reduced word of (the representative of) nu
that multiply out to (the representative of) mu, of the products of the
inversion roots met along the way, each root mapped by t_i -> w0(t_i) so
that the products are in the usual torus coordinates.  Two dynamic
programs evaluate it, both reading the word right to left.  One class at
one point (fixed_point_restriction, behind the restrict command and
type_d_restriction) carries only right factors of that class's
representative.  The oracle's columns carry every product in W^P, the
minimal coset representatives, since every right factor of a reduced word
of an element of W^P is again in W^P; one column holds every class.

Structure constants come from triangular expansion, and the columns of
restrictions are built only at the candidate fixed points: those below
both factors, of codimension at most the sum of theirs.  Asked for one
coefficient c^mu, as the oracle command is, the expansion keeps only the
candidates above mu, the interval that c^mu depends on; the audit asks
for every coefficient and keeps them all.  The candidates are walked in
the box mu_j <= s_j <= min(lam_j, sigma_j) of isotropic symbols, so no
symbol of the space outside it is listed, and each eliminated class
updates only the points where it restricts to nonzero.  Every division
there must come out polynomial, or a ConsistencyError is raised; the
residual at the other fixed points is not checked by the expansion.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import ConsistencyError, InputError, as_int
from .polyring import Polynomial, _unit
from .schubert import (
    Space,
    Symbol,
    _codim,
    _preceq,
    enumerate_symbols,
    own_special_class,
    pieri_bound,
    validate_symbol,
)

Element = Tuple[int, ...]


# -- signed permutation arithmetic ------------------------------------------


def identity_element(rank: int) -> Element:
    return tuple(range(1, rank + 1))


def simple_indices(lie: str, rank: int) -> Tuple[int, ...]:
    return tuple(range(1, rank)) if lie == "A" else tuple(range(1, rank + 1))


def alpha_vector(lie: str, rank: int, i: int) -> Tuple[int, ...]:
    """Coefficients of the simple root alpha_i over epsilon_1..epsilon_rank."""
    if i < 1 or i > rank or (lie == "A" and i == rank):
        raise InputError(f"no simple root {i} in type {lie} rank {rank}")
    v = [0] * rank
    if i < rank:
        v[i - 1], v[i] = 1, -1
    elif lie == "B":
        v[rank - 1] = 1
    elif lie == "C":
        v[rank - 1] = 2
    else:  # D
        v[rank - 2] = 1
        v[rank - 1] = 1
    return tuple(v)


def apply_simple(w: Element, i: int, lie: str) -> Element:
    """w * s_i (right multiplication: edits positions)."""
    rank = len(w)
    out = list(w)
    if i < rank:
        out[i - 1], out[i] = out[i], out[i - 1]
    elif lie in ("B", "C"):
        out[rank - 1] = -out[rank - 1]
    elif lie == "D":
        out[rank - 2], out[rank - 1] = -out[rank - 1], -out[rank - 2]
    else:
        raise InputError(f"no simple reflection {i} in type A rank {rank}")
    return tuple(out)


def compose(u: Element, v: Element) -> Element:
    """(u v)(i) = u(v(i))."""
    out = []
    for vi in v:
        ui = u[abs(vi) - 1]
        out.append(ui if vi > 0 else -ui)
    return tuple(out)


def _inverse(w: Element) -> Element:
    out = [0] * len(w)
    for pos, x in enumerate(w, 1):
        out[abs(x) - 1] = pos if x > 0 else -pos
    return tuple(out)


def act_on_vector(w: Element, vec) -> Tuple[int, ...]:
    out = [0] * len(vec)
    for i, c in enumerate(vec):
        if c:
            wi = w[i]
            out[abs(wi) - 1] += c if wi > 0 else -c
    return tuple(out)


def vector_positive(vec) -> bool:
    for c in vec:
        if c:
            return c > 0
    return False


def _precedes(a: int, b: int) -> bool:
    """a < b in the order 1 < ... < n < -n < ... < -1 of signed letters."""
    return a < b if (a > 0) == (b > 0) else b < 0


def right_ascent(w: Element, i: int, lie: str) -> bool:
    """Whether length(w s_i) > length(w), that is w(alpha_i) > 0.

    For alpha_i = e_i - e_(i+1) that is w[i-1] preceding w[i]; for e_n or
    2e_n, w[n-1] > 0; for e_(n-1) + e_n, w[n-2] preceding -w[n-1].
    """
    rank = len(w)
    if 1 <= i < rank:
        return _precedes(w[i - 1], w[i])
    if i != rank or lie == "A":
        raise InputError(f"no simple root {i} in type {lie} rank {rank}")
    if lie in ("B", "C"):
        return w[rank - 1] > 0
    return _precedes(w[rank - 2], -w[rank - 1])  # D


def reduced_word(w: Element, lie: str) -> Tuple[int, ...]:
    """Leftmost-descent reduced word; rejects invalid signed permutations."""
    rank = len(w)
    if sorted(abs(x) for x in w) != list(range(1, rank + 1)):
        raise ConsistencyError(f"{w} is not a signed permutation of 1..{rank}")
    ident = identity_element(rank)
    word = []
    cur = w
    while cur != ident:
        for i in simple_indices(lie, rank):
            if not right_ascent(cur, i, lie):
                cur = apply_simple(cur, i, lie)
                word.append(i)
                break
        else:
            raise ConsistencyError(f"{w} has no descent yet is not the identity")
    word.reverse()
    return tuple(word)


def longest_element(lie: str, rank: int) -> Element:
    if lie == "A":
        return tuple(range(rank, 0, -1))
    if lie in ("B", "C") or rank % 2 == 0:
        return tuple(-i for i in range(1, rank + 1))
    return tuple(-i for i in range(1, rank)) + (rank,)


# -- symbols and coset representatives ---------------------------------------


def symbol_to_weyl(space: Space, lam: Symbol) -> Element:
    """Minimal coset representative attached to a Schubert symbol."""
    t, n, N = space.lie_type, space.n, space.ambient
    if t == "A":
        rest = tuple(c for c in range(1, N + 1) if c not in lam)
        return tuple(lam) + rest
    letters = []
    for c in lam:
        if c <= n:
            letters.append(c)
        else:
            letters.append(-(N + 1 - c))
    used = {abs(x) for x in letters}
    word = letters + [c for c in range(1, n + 1) if c not in used]
    if t == "D" and sum(1 for x in letters if x < 0) % 2:
        # an even number of sign changes: on OG(n,2n) this maps the base
        # point {1..n-1, -n} of the second component to the symbol
        word[-1] = -word[-1]
    return tuple(word)


def parabolic_indices(space: Space, sym: Symbol) -> Tuple[int, ...]:
    """Simple reflections generating the stabilizer of sym's base point."""
    t, m, n = space.lie_type, space.m, space.n
    if t == "D" and m == n:
        # {1..n-1, -n}, the base point of the second component, is fixed by
        # s_n and moved by s_(n-1)
        excluded = {n - 1} if sum(1 for c in sym if c > n) % 2 else {n}
    elif t == "D" and m == n - 1:
        excluded = {n - 1, n}
    else:
        excluded = {m}
    return tuple(i for i in simple_indices(t, space.torus_rank) if i not in excluded)


def minimal_representative(w: Element, p_inds, lie: str) -> Element:
    done = False
    while not done:
        done = True
        for i in p_inds:
            if not right_ascent(w, i, lie):
                w = apply_simple(w, i, lie)
                done = False
                break
    return w


# -- restrictions -------------------------------------------------------------


def _word_with_prefixes(v: Element, lie: str):
    """Reduced word of v, each letter with the product of the letters before it."""
    prefix = identity_element(len(v))
    out = []
    for i in reduced_word(v, lie):
        out.append((i, prefix))
        prefix = apply_simple(prefix, i, lie)
    return out


def _root(prefix: Element, i: int, lie: str, w0: Element) -> Polynomial:
    """The inversion root prefix(alpha_i) of a reduced word, mapped by
    t_i -> w0(t_i)."""
    rank = len(prefix)
    vec = act_on_vector(prefix, alpha_vector(lie, rank, i))
    if not vector_positive(vec):
        raise ConsistencyError("prefix root of a reduced word must be positive")
    image = act_on_vector(w0, vec)
    return Polynomial._of(rank, {_unit(j, rank): c for j, c in enumerate(image) if c})


def _parabolic_blocks(lie: str, rank: int, p_inds):
    """For each simple i, the slice of x^-1 that x^-1(alpha_i) is read from,
    and the letters there at which it is a simple root of P: (j, j+1) or
    (-j-1, -j) for e_j - e_(j+1), and in type D (n-1, -n) or (n, 1-n) for
    e_(n-1) + e_n.  The last root maps to a multiple of e_a in types B and
    C, blocked at a = n, and to e_a + e_b, the last two letters, in type D."""
    low = [j for j in p_inds if j < rank]
    inner = {(j, j + 1) for j in low} | {(-j - 1, -j) for j in low}
    last = (slice(rank - 1, rank), {(rank,)} if rank in p_inds else set())
    if lie == "D":
        outer = {(j, -j - 1) for j in low} | {(-j - 1, j) for j in low}
        if rank in p_inds:
            inner |= {(rank - 1, -rank), (rank, 1 - rank)}
            outer |= {(rank - 1, rank), (rank, rank - 1)}
        last = (slice(rank - 2, rank), outer)
    return {i: (slice(i - 1, i + 1), inner) if i < rank else last
            for i in simple_indices(lie, rank)}


def _subword_sums(v: Element, lie: str, p_inds) -> Dict[Element, Polynomial]:
    """Billey's subword sums at v for the classes of W^P, keyed by element.

    Reads the reduced word of v right to left, carrying the products x of
    the letters chosen so far.  s_i extends x only when s_i x is longer
    (x^-1(alpha_i) > 0) and still in W^P; the inversion roots depend only
    on the word of v, so the sums at W^P are those of the full subword sum.
    Each x is carried as its inverse, on which s_i x is one position edit,
    and inverted once at the end.  Membership in W^P is Deodhar's lemma
    (Invent. Math. 39, 1977): for x in W^P with s_i x longer, s_i x leaves
    W^P exactly when x^-1(alpha_i) is a simple root of P, which at most two
    letters of x^-1 show (_parabolic_blocks).  A letter's root is built
    when a state first extends by it.
    """
    rank = len(v)
    one, w0 = identity_element(rank), longest_element(lie, rank)
    zero = Polynomial.zero(rank)
    blocks = _parabolic_blocks(lie, rank, p_inds)
    sums = {one: Polynomial.one(rank)}
    for i, prefix in reversed(_word_with_prefixes(v, lie)):
        where, blocked = blocks[i]
        beta = None
        for x_inv, val in list(sums.items()):  # each letter is used at most once
            if not right_ascent(x_inv, i, lie) or x_inv[where] in blocked:
                continue
            if beta is None:
                beta = _root(prefix, i, lie, w0)
            y_inv = apply_simple(x_inv, i, lie)  # (s_i x)^-1 = x^-1 s_i
            sums[y_inv] = sums.get(y_inv, zero)._add_product(val, beta)
    return {_inverse(x_inv): val for x_inv, val in sums.items()}


def _coset(space: Space, sym: Symbol) -> Tuple[Tuple[int, ...], Element]:
    """The parabolic of sym's component and its twisted minimal representative."""
    lie = space.lie_type
    p_inds = parabolic_indices(space, sym)
    w0 = longest_element(lie, space.torus_rank)
    return p_inds, minimal_representative(compose(w0, symbol_to_weyl(space, sym)), p_inds, lie)


def fixed_point_restriction(space: Space, mu, nu) -> Polynomial:
    """[X_mu]^T restricted to the fixed point of nu, computed standalone.

    Billey's sum aimed at the representative w of mu: each product x of the
    letters read so far is carried as u = w x^-1, starting from u = w.  s_i
    extends x exactly when u s_i is shorter than u, for then the lengths of
    u s_i and s_i x add up to that of w, so s_i x is a longer right factor
    of w and lies in W^P; the sum ends at u = 1.  A letter's root is built
    when a state first extends by that letter, since many letters extend
    none.  A class of one component of OG(n,2n) vanishes on the other.
    """
    p_mu, w = _coset(space, validate_symbol(space, mu))
    p_inds, v = _coset(space, validate_symbol(space, nu))
    lie, zero = space.lie_type, Polynomial.zero(space.torus_rank)
    if p_mu != p_inds:
        return zero
    w0 = longest_element(lie, len(v))
    sums = {w: Polynomial.one(space.torus_rank)}
    for i, prefix in reversed(_word_with_prefixes(v, lie)):
        beta = None
        for u, val in list(sums.items()):
            if not right_ascent(u, i, lie):
                if beta is None:
                    beta = _root(prefix, i, lie, w0)
                y = apply_simple(u, i, lie)
                sums[y] = sums.get(y, zero)._add_product(val, beta)
    return sums.get(identity_element(len(w)), zero)


def type_d_restriction(space: Space, nu, q: int) -> Polynomial:
    """N^nu_{nu,q} on an even orthogonal space, straight from localization.

    For q >= 1 this is the restriction of the degree-q special class to the
    fixed point of nu.  On the maximal space OG(n,2n) the special variety
    meets only one of the two families of maximal isotropic subspaces, so the
    class is the one on nu's own component (own_special_class).  At q = 0
    the coefficient there is the intersection number of P(V_nu) with the
    ruling P(E_n) on the quadric of dimension 2(n-1) -- two maximal
    isotropic spaces meet in a point exactly when their intersection has
    odd dimension, i.e. #(nu cap [1,n]) is odd.
    """
    if space.lie_type != "D":
        raise InputError("this restriction shortcut is for even orthogonal spaces")
    nu = validate_symbol(space, nu)
    q = as_int(q, "q")
    n = nvars = space.n
    if q < 0:
        return Polynomial.zero(nvars)
    if q == 0:
        if space.m == n:
            odd = len([c for c in nu if c <= n]) % 2 == 1
            return Polynomial.one(nvars) if odd else Polynomial.zero(nvars)
        return Polynomial.one(nvars)
    if space.m == 0 or q > pieri_bound(space):
        return Polynomial.zero(nvars)
    return fixed_point_restriction(space, own_special_class(space, nu, q, False), nu)


class GkmEngine:
    """Structure constants of one space from its cached restriction table."""

    def __init__(self, space: Space):
        self.space = space
        self.lie = space.lie_type
        self.nvars = space.torus_rank
        self._cosets: Dict[Symbol, Tuple[Tuple[int, ...], Element]] = {}
        self._columns: Dict[Symbol, Dict[Element, Polynomial]] = {}

    def _coset(self, sym: Symbol) -> Tuple[Tuple[int, ...], Element]:
        if sym not in self._cosets:
            self._cosets[sym] = _coset(self.space, sym)
        return self._cosets[sym]

    def _column(self, nu: Symbol) -> Dict[Element, Polynomial]:
        """Raw subword sums at the fixed point nu, for every class of its
        component at once."""
        if nu not in self._columns:
            p_inds, v = self._coset(nu)
            self._columns[nu] = _subword_sums(v, self.lie, p_inds)
        return self._columns[nu]

    def restriction(self, mu, nu) -> Polynomial:
        space = self.space
        return self._restriction(validate_symbol(space, mu), validate_symbol(space, nu))

    def _restriction(self, mu: Symbol, nu: Symbol) -> Polynomial:
        p_mu, w = self._coset(mu)
        if p_mu != self._coset(nu)[0]:
            return Polynomial.zero(self.nvars)
        return self._column(nu).get(w, Polynomial.zero(self.nvars))

    def restriction_vector(self, mu) -> Dict[Symbol, Polynomial]:
        mu = validate_symbol(self.space, mu)
        return {nu: self._restriction(mu, nu) for nu in enumerate_symbols(self.space)}

    def product_expansion(self, lam, sigma, mu=None) -> Dict[Symbol, Polynomial]:
        """[X_lam] * [X_sigma] = sum of c^nu [X_nu]: all coefficients.

        With mu, only the coefficients c^s with mu <= s.  The elimination
        reads c^s only from the points above s, so these candidates are
        closed upward and each value is the full expansion's coefficient.
        """
        space = self.space
        lam = validate_symbol(space, lam)
        sigma = validate_symbol(space, sigma)
        if mu is not None:
            mu = validate_symbol(space, mu)
        # mu_j <= s_j <= min(lam_j, sigma_j) (1 <= s_j without mu), each
        # letter skipped where it breaks isotropy
        N, isotropic = space.ambient, space.lie_type != "A"
        box = [()]
        for j, high in enumerate(map(min, lam, sigma)):
            low = mu[j] if mu is not None else 1
            box = [
                s + (c,)
                for s in box
                for c in range(max(low, s[-1] + 1 if s else 1), high + 1)
                if not isotropic or (2 * c != N + 1 and N + 1 - c not in s)
            ]
        bound = _codim(space, lam) + _codim(space, sigma)
        graded = sorted(
            (d, s) for s in box
            if (d := _codim(space, s)) <= bound and _preceq(space, s, lam)
            and _preceq(space, s, sigma) and (mu is None or _preceq(space, mu, s))
        )
        candidates = [s for _, s in graded]
        restriction = self._restriction
        h = {s: restriction(lam, s) * restriction(sigma, s) for s in candidates}
        out: Dict[Symbol, Polynomial] = {}
        for k, s in enumerate(candidates):  # ascending (codim, lex)
            val = h[s]
            if val.is_zero:
                out[s] = val
                continue
            c = val.divide_exact(
                restriction(s, s),
                f"the expansion of [{list(lam)}]*[{list(sigma)}] at {list(s)}",
            )
            out[s] = c
            minus_c = -c
            for s2 in candidates[k + 1:]:  # h before s is read no more
                r = restriction(s, s2)
                if not r.is_zero:
                    h[s2] = h[s2]._add_product(minus_c, r)
        return out
