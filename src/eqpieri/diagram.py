"""Reduction data for a Pieri pair (lambda, mu) on one space.

Writing the two symbols as rows of boxes, everything the Pieri rule needs
is read off from a handful of column sets (no two-row diagram is ever
materialized):

  zero columns   c with lambda_j < c < mu_(j+1) for some j, taking
                 lambda_0 = 0 and mu_(m+1) = N+1: columns meeting neither row.
  cuts           (isotropic types) c in [0, N] such that c or its mirror
                 N - c splits both rows, i.e. lambda_j <= c < mu_(j+1).
                 The cut set is symmetric under c <-> N - c and always
                 contains 0 and N.
  L              columns deleted when passing to the smaller type A
                 problem: the zero columns, plus the mirror N+1-c of every
                 shared entry lambda_j = mu_j, plus (type D only) the two
                 middle columns in the special configurations around the
                 wall between columns n and n+1.
  Q              left ends of the mirror-symmetric runs of non-cuts, the
                 columns the quadratic terms of the rule are summed over.

From these: nu = [1, N] minus L, the sum set S (Q, possibly with one
column dropped, or a replacement pivot set in type C), m' = |nu| - |S|,
and p' = codim(lambda) + p - codim(mu).  build() packages all of it and
decides which branch of the rule applies.

The arrow relation lambda -> mu is a support condition of the rule: the
coefficient vanishes unless it holds.  It is necessary but not sufficient.
In type D at the critical degree p = n - m, with codim(mu) = codim(lambda)
+ p and Q empty, nu is a maximal isotropic index set, and its family
decides which of the two special classes has a nonzero coefficient: the
one of nu's own family.  build() requires the arrow in types B, C, D (and
plain containment in type A, where the reduction is valid for any
comparable pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Tuple

from .errors import ConsistencyError, InputError, as_int
from .schubert import (
    Space,
    Symbol,
    _codim,
    _leq,
    _preceq,
    special_class,
    validate_symbol,
)


def zero_columns(space: Space, lam: Symbol, mu: Symbol) -> frozenset:
    lam_ext = (0,) + lam
    mu_ext = mu + (space.ambient + 1,)
    out = set()
    for j in range(space.m + 1):
        out.update(range(lam_ext[j] + 1, mu_ext[j]))
    return frozenset(out)


def cut_columns(space: Space, lam: Symbol, mu: Symbol) -> frozenset:
    """Cuts in [0, N]; only meaningful in the isotropic types."""
    if space.lie_type == "A":
        raise InputError("cuts are defined for isotropic spaces only")
    N = space.ambient
    lam_ext = (0,) + lam
    mu_ext = mu + (N + 1,)
    direct = set()
    for j in range(space.m + 1):
        direct.update(range(lam_ext[j], mu_ext[j]))
    return frozenset(c for c in range(N + 1) if c in direct or N - c in direct)


def q_columns(space: Space, cuts: frozenset) -> Tuple[int, ...]:
    n = space.n
    if space.lie_type == "C":
        top = None
        upper = n
    elif space.lie_type == "B":
        top = n + 1
        upper = n + 1
    else:
        top = n
        upper = n
    return tuple(
        c
        for c in range(2, upper + 1)
        if c - 1 not in cuts and (c in cuts or c == top)
    )


def l_columns(space: Space, lam: Symbol, mu: Symbol, zeros: frozenset) -> frozenset:
    if space.lie_type == "A":
        return zeros
    out = set(zeros)
    N = space.ambient
    n, m = space.n, space.m
    for j in range(m):
        if lam[j] == mu[j]:
            out.add(N + 1 - lam[j])
    if space.lie_type == "D":
        lam_ext = (0,) + lam
        mu_ext = mu + (N + 1,)
        for j in range(1, m + 1):
            # a row of lambda ending on the middle wall, clear of mu's next row
            if lam[j - 1] == n + 1 and n + 1 < mu_ext[j]:
                out.add(n)
            # a row of mu starting past the wall, clear of lambda's previous row
            if mu[j - 1] == n and n > lam_ext[j - 1]:
                out.add(n + 1)
    return frozenset(out)


def arrow(space: Space, lam, mu) -> bool:
    """Support relation lambda -> mu of the Pieri rule."""
    return _arrow(space, validate_symbol(space, lam), validate_symbol(space, mu))


def _arrow(space: Space, lam: Symbol, mu: Symbol) -> bool:
    t, m, N, n = space.lie_type, space.m, space.ambient, space.n
    if t == "A":
        return all(a <= b for a, b in zip(mu, lam)) and all(
            lam[i] < mu[i + 1] for i in range(m - 1)
        )
    if t == "D":
        if not _preceq(space, mu, lam):
            return False
    elif not _leq(mu, lam):
        return False
    for i in range(m - 1):
        li, mi1 = lam[i], mu[i + 1]
        if t == "D" and li == n + 1 and mi1 == n:
            # the one allowed overlap: consecutive rows meeting across the wall
            continue
        if li > mi1:
            return False
        if li == mi1:
            if t == "D" and li in (n, n + 1):
                return False
            if not any(mu[j] < N + 1 - li < lam[j] for j in range(m)):
                return False
    return True


def iter_subsets(base: Iterable[int]):
    """Subsets of a sorted tuple, ordered by (size, lexicographic)."""
    base = tuple(base)
    for k in range(len(base) + 1):
        yield from combinations(base, k)


@dataclass
class PieriDiagram:
    """Everything build() derives from (space, lambda, mu, p)."""

    space: Space
    lam: Symbol
    mu: Symbol
    p: int
    has_arrow: bool
    zero_cols: frozenset
    cuts: Optional[frozenset]
    L: frozenset
    Q: Tuple[int, ...]
    Qprime: Tuple[int, ...]
    dropped: Optional[int]
    sum_set: Tuple[int, ...]
    nu: Symbol
    m_prime: int
    p_prime: int
    branch: str  # "restriction", "sum", "halving", or "orthogonal_restriction"

    def nu_I(self, I) -> Symbol:
        """nu with I and the mirrors of sum_set - I removed."""
        I = frozenset(as_int(c, "column of I") for c in I)
        S = frozenset(self.sum_set)
        if not I <= S:
            raise InputError(f"I = {sorted(I)} is not a subset of {list(self.sum_set)}")
        N = self.space.ambient
        removed = set(I) | {N + 1 - c for c in S - I}
        out = tuple(c for c in self.nu if c not in removed)
        if len(out) != len(self.nu) - len(self.sum_set):
            raise ConsistencyError(
                f"nu_I for I = {sorted(I)} has {len(out)} entries, "
                f"expected {len(self.nu) - len(self.sum_set)}"
            )
        return out

    def nu_plus(self) -> Symbol:
        if self.branch != "halving":
            raise InputError("nu+ only exists on the halving branch")
        return tuple(sorted(self.nu + (self.space.n + 1,)))

    def describe(self) -> str:
        sp = self.space
        lines = [
            f"{sp.name()} [type {sp.lie_type}]  lambda={list(self.lam)}  "
            f"mu={list(self.mu)}  p={self.p}",
            f"codim(lambda)={_codim(sp, self.lam)}  codim(mu)={_codim(sp, self.mu)}"
            f"  p'={self.p_prime}",
            f"arrow: {'yes' if self.has_arrow else 'no'}",
            f"zero columns: {sorted(self.zero_cols)}",
        ]
        if self.cuts is not None:
            lines.append(f"cuts: {sorted(self.cuts)}")
            dropped = "none" if self.dropped is None else str(self.dropped)
            lines.append(
                f"Q: {list(self.Q)}  Q': {list(self.Qprime)}  dropped: {dropped}"
            )
        lines.append(f"L: {sorted(self.L)}")
        lines.append(f"nu: {list(self.nu)}  m'={self.m_prime}")
        if self.branch == "halving":
            lines.append(
                f"branch: halving -> Gr({self.m_prime + 1},{sp.ambient}) "
                f"at nu+ = {list(self.nu_plus())}"
            )
        elif self.branch == "orthogonal_restriction":
            lines.append(
                f"branch: orthogonal restriction -> OG({self.m_prime},{sp.ambient})"
            )
        elif self.branch == "restriction":
            lines.append(f"branch: restriction -> Gr({self.m_prime},{sp.ambient})")
        else:
            lines.append(
                f"branch: sum over subsets of {list(self.sum_set)} "
                f"-> Gr({self.m_prime},{sp.ambient})"
            )
            for I in iter_subsets(self.sum_set):
                lines.append(f"  I={list(I)} -> nu_I={list(self.nu_I(I))}")
        return "\n".join(lines)


def _check_choices(
    space: Space, p: int, chat, pivot
) -> Tuple[Optional[int], Optional[Tuple[int, ...]]]:
    """Refuse, for every pair alike, a choice that no pair of the space takes
    at degree p, and return chat and pivot as integers, pivot sorted.

    A dropped column exists only in types B and D, at a degree that drops
    one (B: p > n - m, D: p >= n - m), and lies in [2, n+1] (B) or [2, n]
    (D), where Q lies; a pivot exists only in type C, and its columns are
    distinct and lie in [1, n].  _build checks what is left against the
    pair's own Q and nu.
    """
    t, n, m = space.lie_type, space.n, space.m
    if chat is not None and t not in ("B", "D"):
        raise InputError("a dropped column only exists in the orthogonal types")
    if pivot is not None and t != "C":
        raise InputError("pivot replacement only applies to symplectic spaces")
    if chat is not None:
        if p <= n - m if t == "B" else p < n - m:
            raise InputError("no column is dropped from Q for these inputs")
        top = n + 1 if t == "B" else n
        chat = as_int(chat, "chat")
        if not 2 <= chat <= top:
            raise InputError(f"chat = {chat} outside [2, {top}]")
    if pivot is not None:
        pivot = tuple(sorted(as_int(c, "pivot column") for c in pivot))
        if len(set(pivot)) != len(pivot):
            raise InputError("pivot columns must be distinct")
        for c in pivot:
            if not 1 <= c <= n:
                raise InputError(f"pivot column {c} outside [1, {n}]")
    return chat, pivot


def build(
    space: Space,
    lam,
    mu,
    p: int,
    chat: Optional[int] = None,
    pivot=None,
) -> PieriDiagram:
    """Assemble the reduction data; see the module docstring.

    Type A takes the same steps with no cuts and an empty Q, and always
    lands on the restriction branch.  chat picks the column dropped from Q
    when one is dropped (types B, D; default: the smallest).  pivot
    replaces Q as the sum set in type C.
    """
    lam = validate_symbol(space, lam)
    mu = validate_symbol(space, mu)
    special_class(space, p)
    has_arrow = _arrow(space, lam, mu)
    if space.lie_type == "A":
        if not _leq(mu, lam):
            raise InputError(f"mu = {list(mu)} is not componentwise below lambda = {list(lam)}")
    elif not has_arrow:
        raise InputError(
            f"no arrow from {list(lam)} to {list(mu)}: the coefficient vanishes"
        )
    chat, pivot = _check_choices(space, p, chat, pivot)
    return _build(space, lam, mu, p, chat, pivot, has_arrow)


def _build(
    space: Space,
    lam: Symbol,
    mu: Symbol,
    p: int,
    chat: Optional[int] = None,
    pivot=None,
    has_arrow: bool = True,
) -> PieriDiagram:
    """build's core, on checked symbols with mu <= lambda (the arrow outside
    type A), a checked p, and chat and pivot as _check_choices returns them.
    Only the checks against the pair's own Q and nu are left here: chat in Q
    (or no chat when none is dropped), and as many pivot columns as Q has,
    each with both c and N+1-c in nu."""
    t, m, n, N = space.lie_type, space.m, space.n, space.ambient
    zeros = zero_columns(space, lam, mu)
    L = l_columns(space, lam, mu, zeros)
    p_prime = _codim(space, lam) + p - _codim(space, mu)
    cuts = None if t == "A" else cut_columns(space, lam, mu)
    Q = () if t == "A" else q_columns(space, cuts)
    nu = tuple(c for c in range(1, N + 1) if c not in L)

    if t == "B":
        drop = bool(Q) and p > n - m
    else:
        drop = t == "D" and bool(Q) and p >= n - m

    dropped = None
    if drop:
        dropped = min(Q) if chat is None else chat
        if dropped not in Q:
            raise InputError(f"chat = {dropped} is not in Q = {list(Q)}")
    elif chat is not None:
        raise InputError("no column is dropped from Q for these inputs")
    Qprime = tuple(c for c in Q if c != dropped)

    if t == "A":
        branch = "restriction"
    elif t == "B" and p > n - m and not Q:
        branch = "halving"
    elif t == "D" and p >= max(n - m, 1) and not Q:
        # at p = 0 on OG(n,2n) the empty sum below is the coefficient 1
        branch = "orthogonal_restriction"
    else:
        branch = "sum"

    sum_set = Qprime if branch == "sum" else ()
    if pivot is not None:
        if len(pivot) != len(Q):
            raise InputError(f"pivot needs exactly {len(Q)} columns, got {len(pivot)}")
        for c in pivot:
            if c not in nu or N + 1 - c not in nu:
                raise InputError(
                    f"pivot column {c} needs both {c} and {N + 1 - c} in nu"
                )
        sum_set = pivot

    m_prime = len(nu) - len(sum_set) if branch == "sum" else len(nu)

    diag = PieriDiagram(
        space, lam, mu, p, has_arrow, zeros, cuts, L,
        Q, Qprime, dropped, sum_set, nu, m_prime, p_prime, branch,
    )

    # invariants of the construction; type A reduces pairs without the arrow
    expected_bump = 1 if drop else 0
    if has_arrow and p_prime != m + p - m_prime + expected_bump:
        raise ConsistencyError(
            f"p' = {p_prime} does not match m + p - m' (+{expected_bump})"
        )
    for c in sum_set:
        if c not in nu or N + 1 - c not in nu:
            raise ConsistencyError(
                f"sum column {c} lacks {c} or its mirror {N + 1 - c} in nu"
            )
    if branch == "halving" and n + 1 in nu:
        raise ConsistencyError("halving branch expects the middle column outside nu")
    if branch == "orthogonal_restriction" and p_prime >= 0:
        # only here does nu need to be an isotropic symbol (with |nu| <= n);
        # for p' < 0 the coefficient vanishes before nu is consumed
        try:
            validate_symbol(Space("D", m_prime, n), nu)
        except InputError as exc:
            raise ConsistencyError(f"nu = {list(nu)} is not an isotropic symbol: {exc}")
    return diag
