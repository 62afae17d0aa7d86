"""Restriction of a special Schubert class to a fixed point on Gr(m, N).

The coefficient N^nu_{nu,p} of [X_nu] in [X_nu] * [X_p] equals the
restriction of the special class [X_p] to the fixed point nu.  Splitting
[1, N] at the marker of the special symbol,

    I1 = [1, N-m-p+1],   I2 = [N-m-p+2, N],
    a  = sorted(I1 intersect nu)   (r elements),
    b  = sorted(I2 minus nu)       (always p+r-1 elements),

the coefficient is the subword sum

    sum over 1 <= c_1 < ... < c_p <= p+r-1  of
        prod_i ( t_{b[c_i]} - t_{a[c_i - i + 1]} )      (1-based),

a manifestly positive expression: every factor t_j - t_i has i < j.  The
sum is empty (coefficient 0) exactly when r = 0, i.e. nu is not below the
special symbol; p = 0 gives 1, and p < 0 gives 0.

The factor at position i can only use c_i in [i, r+i-1], so the sum is
evaluated row by row, like a factorial Schur function (Molev-Sagan), instead
of over all C(p+r-1, p) subwords.  With S_0 = 1 and S_i(c) the sum over the
subwords of length i ending at or before c,

    S_i(c) = S_i(c-1) + S_{i-1}(c-1) * ( t_{b[c]} - t_{a[c-i+1]} ),
                                                   c = i .. r+i-1,

and the coefficient is S_p(p+r-1): p*r products of a polynomial with one
linear factor.  restriction_coefficient checks its input and gives the
value in the N variables themselves.  Its core _restriction, which the
Pieri rule calls on symbols it built, reads a and b off nu and runs these
rows on N images of the weights: the rule passes the folding
specialization, which maps each linear factor before the factors are
multiplied.  Every S_i(c) is a sum of products of the same factors
t_j - t_i with i < j, so the value stays manifestly positive.  The
subword sum comes from evaluating a partial-fraction identity, which the
tests replay at random integer points with exact rational arithmetic.
"""

from __future__ import annotations

from .errors import ConsistencyError, InputError, as_int
from .polyring import Polynomial
from .schubert import Space, validate_symbol


def restriction_coefficient(space: Space, nu, p: int) -> Polynomial:
    """N^nu_{nu,p} on Gr(m, N) as a polynomial in N torus parameters."""
    if space.lie_type != "A":
        raise InputError("restriction coefficients live on type A spaces")
    nu = validate_symbol(space, nu)
    p = as_int(p, "p")
    N = space.n
    return _restriction(N, nu, p, [Polynomial.variable(j, N) for j in range(1, N + 1)])


def _restriction(N: int, nu, p: int, images) -> Polynomial:
    """restriction_coefficient's core on Gr(len(nu), N), for a checked nu,
    an integer p and N images: a and b are read off nu, and row i holds
    S_i(c) for c = i..r+i-1.  t_j is sent to images[j-1] in each linear
    factor before the factors are multiplied, which is the same as
    substituting the images into the value; the value then lies in the
    images' ring."""
    m, nvars = len(nu), images[0].nvars
    if p < 0 or p > N - m:
        return Polynomial.zero(nvars)
    if p == 0:
        return Polynomial.one(nvars)
    split = N - m - p + 1  # at least 1, since p <= N - m
    a = [c for c in nu if c <= split]
    b = [c for c in range(split + 1, N + 1) if c not in nu]
    r = len(a)
    if len(b) != p + r - 1:
        raise ConsistencyError(f"nu = {list(nu)} has {len(b)} upper gaps, expected {p + r - 1}")
    if r == 0:
        return Polynomial.zero(nvars)
    row = [Polynomial.one(nvars)] * r
    for i in range(p):
        total = Polynomial.zero(nvars)
        for j in range(r):
            total = total._add_product(row[j], images[b[i + j] - 1] - images[a[j] - 1])
            row[j] = total
    return row[-1]

