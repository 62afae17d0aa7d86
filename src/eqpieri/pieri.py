"""Equivariant Pieri structure coefficients for the classical Grassmannians.

The coefficient N^mu_{lambda,p} is the coefficient of the Schubert class of
mu in the product of the class of lambda with the degree-p special Schubert
class, in torus-equivariant cohomology.  Every coefficient is computed
exactly, as an integer polynomial in the torus weights t_1..t_n (t_1..t_N in
type A), by reducing to restriction coefficients of ordinary Grassmannians:

* type A: the coefficient *is* a restriction coefficient N^nu_{nu,p'} on
  Gr(m', N) read off the cut diagram of the pair (lambda, mu);
* types B/C/D, generic case: a sum over subsets I of the bookkeeping columns
  of specialized restriction coefficients F(N^{nu_I}_{nu_I,p'}), where the
  specialization F folds the N ambient weights onto the n torus weights
  (t_j -> t_j for j <= n, t_j -> -t_{N+1-j} above the fold; type B also
  kills the middle weight).  F is a ring map, so it is applied to each
  linear factor t_b - t_a before the factors are multiplied;
* type B, high degree without bookkeeping columns: one even-dimensional
  restriction coefficient, specialized and halved exactly;
* type D, high degree without bookkeeping columns: a restriction coefficient
  of an even orthogonal Grassmannian, evaluated by localization.  On the
  maximal space this value is sensitive to the two families of maximal
  isotropic subspaces; see gkm.type_d_restriction for the family handling.

In type D at the critical degree p = n - m there is a second special class,
attached to the opposite family of maximal isotropic subspaces.  Its
coefficients (the "tilde" variant) are obtained by swapping the letters
n <-> n+1 in lambda and mu and twisting the result by t_n -> -t_n.

Outside the orthogonal restriction the branches differ only in their type A
terms: the one term nu, the terms nu_I in subset order, or the one term nu+.
_diagram_value sums the terms' restriction coefficients in one loop, through
the specialization (the identity in type A), and halves exactly on the
halving branch.

Input is checked once, at the public entry points.  compute_pieri and
pieri_expansion validate their symbols and p and read the zero gate;
compute_pieri refuses a chat or pivot that no pair takes before the gate,
in diagram._check_choices, with one message for every pair.  Each pair that
passes is then evaluated by the private cores, which trust their input:
diagram._build for the diagram, _diagram_value for its value, and
restrict_a._restriction for each type A term.  No degree takes a shortcut:
at p = 0 the pair (lambda, lambda) passes the gate, and its diagram takes
the sum branch over an empty sum set, with value 1.  compute_pieri also
lists the terms as PieriTerm records, for provenance only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .diagram import PieriDiagram, _arrow, _build, _check_choices, iter_subsets
from .errors import ConsistencyError
from .gkm import type_d_restriction
from .polyring import Polynomial, PositivityCertificate, RootBasis, root_positivity_certificate
from .restrict_a import _restriction, restriction_coefficient
from .schubert import (
    Space,
    Symbol,
    _codim,
    _graded_symbols,
    special_class,
    swap_wall_letters,
    validate_symbol,
)


@lru_cache(maxsize=None)
def specialization_images(space: Space) -> Tuple[Polynomial, ...]:
    """Images of the N ambient weights under the folding specialization.

    t_j -> t_j for j <= n and t_j -> -t_{N+1-j} for j above the fold; in
    type B the middle weight t_{n+1} is sent to zero.  In type A, where n = N
    and nothing folds, every weight is its own image.  Built once per space.
    """
    n, N = space.torus_rank, space.ambient
    images: List[Polynomial] = []
    for j in range(1, N + 1):
        if j <= n:
            images.append(Polynomial.variable(j, n))
        elif space.lie_type == "B" and j == n + 1:
            images.append(Polynomial.zero(n))
        else:
            images.append(-Polynomial.variable(N + 1 - j, n))
    return tuple(images)


@dataclass(frozen=True)
class PieriTerm:
    """One restriction coefficient N^nu_{nu,p} on a type A space feeding the
    final value.  Its unspecialized polynomial, in the N ambient weights, is
    built only when read: the rule folds each linear factor instead."""

    subset: Optional[Tuple[int, ...]]
    inner_space: Space
    nu: Symbol
    p: int

    @property
    def unspecialized(self) -> Polynomial:
        return restriction_coefficient(self.inner_space, self.nu, self.p)

    def to_json_dict(self) -> dict:
        return {
            "I": None if self.subset is None else list(self.subset),
            "unspecialized": self.unspecialized.to_json_dict(),
        }


@dataclass
class PieriComputation:
    """A coefficient together with how it was assembled."""

    space: Space
    lam: Symbol
    mu: Symbol
    p: int
    tilde: bool
    diagram: Optional[PieriDiagram]
    terms: List[PieriTerm]
    value: Polynomial


def _term_symbols(d: PieriDiagram):
    """(I, nu) of each type A term: the one nu+ on the halving branch, the nu_I
    in subset order on the sum branch, and type A's one nu (the subset () of
    the empty sum set) on the restriction branch; I is None off the sum.  The
    orthogonal restriction has no type A term."""
    if d.branch == "orthogonal_restriction":
        return []
    if d.branch == "halving":
        return [(None, d.nu_plus())]
    return [(I if d.branch == "sum" else None, d.nu_I(I)) for I in iter_subsets(d.sum_set)]


def _diagram_value(space: Space, d: PieriDiagram, tilde: bool) -> Polynomial:
    """The coefficient a built diagram stands for, twisted by t_n -> -t_n when
    the diagram was built on the letters swapped for tilde."""
    if d.branch == "orthogonal_restriction":
        value = type_d_restriction(Space("D", d.m_prime, space.n), d.nu, d.p_prime)
    elif d.branch in ("restriction", "sum", "halving"):
        images = specialization_images(space)
        value = Polynomial.zero(space.torus_rank)
        for _, nu in _term_symbols(d):
            value = value + _restriction(space.ambient, nu, d.p_prime, images)
        if d.branch == "halving":
            value = value.divide_exact(
                Polynomial.constant(2, space.torus_rank),
                f"the halving branch for lambda={list(d.lam)}, mu={list(d.mu)}, p={d.p}",
            )
    else:
        raise ConsistencyError(f"unknown reduction branch {d.branch!r}")
    return value._scale(-1, range(space.n - 1, space.n)) if tilde else value


def compute_pieri(
    space: Space,
    lam: Sequence[int],
    mu: Sequence[int],
    p: int,
    *,
    chat: Optional[int] = None,
    pivot: Optional[Sequence[int]] = None,
    tilde: bool = False,
) -> PieriComputation:
    """N^mu_{lambda,p} with full provenance."""
    lam = validate_symbol(space, lam)
    mu = validate_symbol(space, mu)
    special_class(space, p, tilde)
    chat, pivot = _check_choices(space, p, chat, pivot)
    gate_lam, gate_mu = (
        (swap_wall_letters(space, lam), swap_wall_letters(space, mu)) if tilde else (lam, mu)
    )
    if not _arrow(space, gate_lam, gate_mu) or (
        _codim(space, gate_mu) > _codim(space, gate_lam) + p
    ):
        value = Polynomial.zero(space.torus_rank)
        return PieriComputation(space, lam, mu, p, tilde, None, [], value)
    d = _build(space, gate_lam, gate_mu, p, chat, pivot)
    terms = [
        PieriTerm(I, Space("A", len(nu), space.ambient), nu, d.p_prime)
        for I, nu in _term_symbols(d)
    ]
    return PieriComputation(space, lam, mu, p, tilde, d, terms, _diagram_value(space, d, tilde))


def pieri_coefficient(
    space: Space,
    lam: Sequence[int],
    mu: Sequence[int],
    p: int,
    *,
    chat: Optional[int] = None,
    pivot: Optional[Sequence[int]] = None,
    tilde: bool = False,
) -> Polynomial:
    """The structure coefficient N^mu_{lambda,p}, an exact polynomial."""
    return compute_pieri(space, lam, mu, p, chat=chat, pivot=pivot, tilde=tilde).value


def pieri_expansion(
    space: Space, lam: Sequence[int], p: int, *, tilde: bool = False
) -> Dict[Symbol, Polynomial]:
    """All nonzero coefficients of the product with the special class.

    lambda and p are validated once, here.  Only the mu that pass
    compute_pieri's own zero gate are evaluated: lambda -> mu with
    codim lambda <= codim mu <= codim lambda + p, both read on the swapped
    letters with tilde.  The arrow implies the lower bound, and at
    codim lambda it holds only for mu = lambda.  The swap n <-> n+1 keeps
    codim, so the walk covers one window of the graded symbols; at p = 0
    the window is codim lambda, where only lambda itself passes.  Each
    survivor goes straight to the cores that compute_pieri shares, _build
    and _diagram_value, with no second check of its symbols.
    """
    lam = validate_symbol(space, lam)
    special_class(space, p, tilde)
    gate_lam = swap_wall_letters(space, lam) if tilde else lam
    low = _codim(space, lam)
    graded = _graded_symbols(space)
    out: Dict[Symbol, Polynomial] = {}
    for c, mu in graded[bisect_left(graded, (low,)):]:
        if c > low + p:
            break
        gate_mu = swap_wall_letters(space, mu) if tilde else mu
        if not _arrow(space, gate_lam, gate_mu):
            continue
        value = _diagram_value(space, _build(space, gate_lam, gate_mu, p), tilde)
        if not value.is_zero:
            out[mu] = value
    return out


def positivity_certificate(space: Space, value: Polynomial) -> PositivityCertificate:
    """Certify Graham positivity of a coefficient for this space's root data."""
    return root_positivity_certificate(value, RootBasis(space.lie_type, space.torus_rank))
