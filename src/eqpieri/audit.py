"""The reduction rule audited against the localization oracle.

Per (lambda, p) the oracle expands the product with the special class once,
and each mu of the space pairs its coefficient with the rule's.  ``verify``
prints these records and the acceptance tests read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .diagram import _arrow
from .gkm import GkmEngine
from .pieri import compute_pieri
from .polyring import Polynomial
from .schubert import Space, Symbol, enumerate_symbols, own_special_class, pieri_bound

# the spaces of ``eqpieri verify`` and of the acceptance sweep
SMALL_SUITE = (Space("A", 2, 5), Space("C", 2, 3), Space("B", 2, 3), Space("D", 2, 4))


@dataclass(frozen=True)
class AuditRecord:
    """One coefficient N^mu_{lambda,p}: the rule's value beside the oracle's."""

    lam: Symbol
    mu: Symbol
    p: int
    arrow: bool
    rule: Polynomial
    oracle: Polynomial


def audit(space: Space, tilde: bool = False) -> Iterator[AuditRecord]:
    """Every (lambda, p, mu) of the space, in that nesting order; with tilde,
    only p = n - m and the second special class of type D."""
    engine = GkmEngine(space)
    zero = Polynomial.zero(space.torus_rank)
    degrees = (space.n - space.m,) if tilde else range(1, pieri_bound(space) + 1)
    symbols = enumerate_symbols(space)
    for lam in symbols:
        for p in degrees:
            expansion = engine.product_expansion(lam, own_special_class(space, lam, p, tilde))
            for mu in symbols:
                yield AuditRecord(
                    lam, mu, p, _arrow(space, lam, mu),
                    compute_pieri(space, lam, mu, p, tilde=tilde).value,
                    expansion.get(mu, zero),
                )

