"""Grassmannians of classical type and their Schubert symbols.

The four families, with ``n`` the rank of the acting group:

  A: Gr(m, n)       all m-planes in C^n; ambient dimension N = n
  B: OG(m, 2n+1)    isotropic m-planes, odd orthogonal; N = 2n+1
  C: SG(m, 2n)      isotropic m-planes, symplectic; N = 2n
  D: OG(m, 2n)      isotropic m-planes, even orthogonal; N = 2n

A Schubert symbol is a strictly increasing tuple of m integers in [1, N].
Outside type A the isotropy condition forbids lambda_i + lambda_j = N + 1
for all i <= j (in particular the entry n+1 never occurs in type B).  Each
symbol indexes one T-fixed point and one Schubert variety; codim() returns
the codimension of that variety, so the fundamental class has codim 0 and
the point class has codim equal to the dimension of the space.

In type D the even orthogonal Grassmannian OG(n, 2n) of maximal isotropic
planes has two connected components; symbols are taken at face value and
enumerate both, with type_of() separating them (type 1 vs type 2).  The
partial order preceq() refines the componentwise order leq() by a type
condition, relates no two symbols on different components of OG(n, 2n),
and agrees with leq() in types A, B, C.

Symbols are checked once, where they enter the package: codim(), leq() and
preceq() validate and call private cores, which trust symbols the package
built or checked.  special_class() holds the contract on the degree p and
on the second special class; own_special_class() takes, on OG(n,2n), the
special class on a symbol's own component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import List, Sequence, Tuple

from .errors import InputError, as_int

Symbol = Tuple[int, ...]


@dataclass(frozen=True)
class Space:
    """One Grassmannian, determined by lie_type, m, and the rank n."""

    lie_type: str
    m: int
    n: int

    def __post_init__(self):
        if self.lie_type not in ("A", "B", "C", "D"):
            raise InputError(f"unknown Lie type {self.lie_type!r}")
        if as_int(self.n, "n") < 1:
            raise InputError("n must be at least 1")
        if self.lie_type == "D" and self.n < 2:
            raise InputError("even orthogonal spaces need n >= 2")
        if not 0 <= as_int(self.m, "m") <= self.n:
            raise InputError(
                f"m = {self.m} outside [0, {self.n}] for type {self.lie_type}"
            )

    @property
    def ambient(self) -> int:
        """N: symbols take entries in [1, N]."""
        if self.lie_type == "A":
            return self.n
        if self.lie_type == "B":
            return 2 * self.n + 1
        return 2 * self.n

    @property
    def torus_rank(self) -> int:
        """Number of torus weights t_i: N in type A, n otherwise."""
        return self.ambient if self.lie_type == "A" else self.n

    @property
    def dimension(self) -> int:
        m, n = self.m, self.n
        if self.lie_type == "A":
            return m * (n - m)
        if self.lie_type == "D":
            return 2 * m * (n - m) + m * (m - 1) // 2
        return 2 * m * (n - m) + m * (m + 1) // 2

    def name(self) -> str:
        if self.lie_type == "A":
            return f"Gr({self.m},{self.n})"
        if self.lie_type == "C":
            return f"SG({self.m},{2 * self.n})"
        return f"OG({self.m},{self.ambient})"


def validate_symbol(space: Space, lam: Sequence[int]) -> Symbol:
    """Normalize to a tuple and reject anything that is not a symbol."""
    lam = tuple(as_int(x, "symbol entry") for x in lam)
    if len(lam) != space.m:
        raise InputError(
            f"symbol {list(lam)} has {len(lam)} parts, expected m = {space.m}"
        )
    N = space.ambient
    for j, x in enumerate(lam, 1):
        if not 1 <= x <= N:
            raise InputError(f"lambda_{j} = {x} outside [1, {N}]")
    for j in range(1, len(lam)):
        if lam[j - 1] >= lam[j]:
            raise InputError(
                f"lambda_{j} = {lam[j - 1]} not below lambda_{j + 1} = {lam[j]}"
            )
    if space.lie_type != "A":
        for i in range(len(lam)):
            for j in range(i, len(lam)):
                if lam[i] + lam[j] == N + 1:
                    raise InputError(
                        f"lambda_{i + 1}+lambda_{j + 1} = {N + 1} violates isotropy"
                    )
    return lam


def codim(space: Space, lam: Sequence[int]) -> int:
    """Codimension of the Schubert variety indexed by lam."""
    return _codim(space, validate_symbol(space, lam))


def _codim(space: Space, lam: Symbol) -> int:
    m = len(lam)
    total = sum(lam) - m * (m + 1) // 2
    if space.lie_type != "A":
        # pairs i < j (i <= j in B and D) with lambda_i + lambda_j > N + 1
        bound, diagonal = space.ambient + 1, space.lie_type != "C"
        total -= sum(1 for j, x in enumerate(lam) for y in lam[: j + diagonal] if x + y > bound)
    return space.dimension - total


def leq(space: Space, mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Componentwise comparison mu_j <= lam_j (containment of varieties)."""
    return _leq(validate_symbol(space, mu), validate_symbol(space, lam))


def _leq(mu: Symbol, lam: Symbol) -> bool:
    return all(a <= b for a, b in zip(mu, lam))


def closure(space: Space, lam: Sequence[int]) -> frozenset:
    """The symbol together with the mirror N+1-c of each entry."""
    N = space.ambient
    return frozenset(lam) | frozenset(N + 1 - x for x in lam)


def type_of(space: Space, lam: Symbol) -> int:
    """Type of a symbol in an even orthogonal space: 0, 1, or 2.

    Type 0 means the symbol is insensitive to the component choice; types 1
    and 2 distinguish the two families of maximal isotropic subspaces.
    """
    if space.lie_type != "D":
        raise InputError("type classification only applies to even orthogonal spaces")
    n = space.n
    if n not in closure(space, lam):
        return 0
    missing = sum(1 for c in range(1, n + 1) if c not in lam)
    return 1 if missing % 2 == 0 else 2


def preceq(space: Space, mu: Sequence[int], lam: Sequence[int]) -> bool:
    """The containment order; refines leq by a type condition in type D."""
    return _preceq(space, validate_symbol(space, mu), validate_symbol(space, lam))


def _preceq(space: Space, mu: Symbol, lam: Symbol) -> bool:
    if not _leq(mu, lam):
        return False
    if space.lie_type != "D":
        return True
    n = space.n
    if space.m == n:
        return type_of(space, lam) == type_of(space, mu)
    common = closure(space, lam) & closure(space, mu)
    for c in range(1, n):
        if all(x in common for x in range(c + 1, n + 1)) and sum(
            1 for x in lam if x <= c
        ) == sum(1 for x in mu if x <= c):
            return type_of(space, lam) == type_of(space, mu)
    return True


def pieri_bound(space: Space) -> int:
    """Largest p for which the special class with codim p exists."""
    if space.m == 0:
        return 0
    if space.lie_type == "A":
        return space.n - space.m
    if space.lie_type == "D":
        return 2 * space.n - space.m - 1
    return 2 * space.n - space.m


def swap_wall_letters(space: Space, sym: Sequence[int]) -> Symbol:
    """Exchange the letters n and n+1 of a type D symbol."""
    n = space.n
    flipped = [n + 1 if c == n else n if c == n + 1 else c for c in sym]
    return tuple(sorted(flipped))


def special_class(space: Space, p: int, tilde: bool = False) -> Symbol:
    """The symbol of the degree-p special class, checked against the space.

    With tilde, the second special class of an even orthogonal space at
    p = n - m: the letters n <-> n+1 of the first one swapped.  p = 0 gives
    the fundamental class.
    """
    p = as_int(p, "p")
    bound = pieri_bound(space)
    if not 0 <= p <= bound:
        raise InputError(f"p = {p} is outside the special-class range [0, {bound}]")
    if tilde and (space.lie_type != "D" or p != space.n - space.m or p < 1):
        raise InputError(
            "the second special class exists only on even orthogonal "
            "spaces at p = n - m"
        )
    m, n, N = space.m, space.n, space.ambient
    if m == 0:
        return ()
    if space.lie_type == "A":
        np_ = N + 1 - m - p
    elif space.lie_type == "C":
        np_ = 2 * n + 1 - m - p
    elif space.lie_type == "B":
        np_ = 2 * n + 2 - m - p if p <= n - m else 2 * n + 1 - m - p
    else:
        np_ = 2 * n + 1 - m - p if p < n - m else 2 * n - m - p
    if space.lie_type == "A" or np_ > m - 1:
        sym = (np_,) + tuple(range(N + 2 - m, N + 1))
    else:
        tail = [x for x in range(N + 1 - m, N + 1) if x != N + 1 - np_]
        sym = tuple(sorted([np_] + tail))
    return swap_wall_letters(space, sym) if tilde else sym


def own_special_class(space: Space, lam: Symbol, p: int, tilde: bool) -> Symbol:
    """The special class whose product with lam the coefficients N^mu_{lam,p}
    expand: special_class, except on the maximal OG(n,2n), where it is the
    one on lam's own component, its letters n <-> n+1 swapped when the two
    families differ.  A product across the components is zero."""
    sigma = special_class(space, p, tilde)
    maximal = space.lie_type == "D" and space.m == space.n
    if maximal and type_of(space, sigma) != type_of(space, lam):
        return swap_wall_letters(space, sigma)
    return sigma


def special_symbol(space: Space, p: int) -> Tuple[Symbol, int]:
    """The symbol of the codimension-p special class, plus its marker n_p.

    n_p is the smallest entry; the remaining entries sit at the top of
    [1, N].  p = 0 gives the fundamental class.
    """
    sym = special_class(space, p)
    return sym, (sym[0] if sym else 0)


def _graded_symbols(space: Space) -> List[Tuple[int, Symbol]]:
    """(codim, symbol) for every symbol, sorted: fundamental class first."""
    N, m = space.ambient, space.m
    if space.lie_type == "A":
        symbols = combinations(range(1, N + 1), m)
    else:
        # an isotropic symbol holds one letter of each of m mirror pairs
        # {c, N+1-c}, c <= n; in type B the middle letter n+1 is its own
        # mirror and never occurs
        symbols = (
            tuple(sorted(letters))
            for pairs in combinations(range(1, space.n + 1), m)
            for letters in product(*((c, N + 1 - c) for c in pairs))
        )
    return sorted((_codim(space, s), s) for s in symbols)


def enumerate_symbols(space: Space):
    """All symbols, sorted by (codim, lexicographic), fundamental class first."""
    return [s for _, s in _graded_symbols(space)]
