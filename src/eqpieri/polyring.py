"""Exact sparse polynomials over the integers, plus positivity certificates.

A polynomial is a dict mapping packed monomial keys to nonzero integer
coefficients; arithmetic is exact, never floats.  A key is one int of 16-bit
fields (``_WIDTH``): the total degree in the top field, then the exponents of
x_1, x_2, ... in turn.  So int order is graded lex, a product of monomials is
one int addition, and the leading term is ``max`` of the keys.  Output lists
terms in that order, largest first, so it is deterministic.  The top bit of
each field is a guard, never set in a stored key: a total degree above
``_LIMIT`` (32767) is refused in ``_add_product``, the only place a degree
grows, before it could carry into the next field; division subtracts keys
with every guard set, and a field whose exponent would go negative clears
its guard.  ``_add_product`` is the one product loop: it returns acc + a*b,
adding each term pair of a*b straight into a copy of acc's dict, so loops
that accumulate products (the row recursion of ``restrict_a``, Billey's sums
and the triangular elimination in ``gkm``, the Horner step below) never
build a product on its own, and ``__mul__`` is its case acc = 0.
``terms`` is the same mapping keyed by exponent tuples, built on read.
Variables are positional and 1-based in printed output: the equivariant
parameters of an ambient torus.  Callers choose the display prefix ("t" for
torus parameters of the symplectic or orthogonal group, "s" for the larger
general-linear torus upstairs).  Substitution is Horner's scheme in the
variables: terms are grouped by the exponent of one variable at a time, so
each step multiplies by one image.

The second half of the module certifies Graham positivity: a class is
expanded in the basis of negated simple roots v_i = -alpha_i and accepted
only if every coefficient is a nonnegative integer.  For the types with
short or multiplied roots (C and D) the change of basis has determinant a
power of 2, so we clear denominators by scaling the input by 2^degree and
check divisibility instead of leaving the integers.  The change of basis is
a few steps x_i -> x_i + c*x_j, each expanded by the binomial theorem on the
keys, and scalings x_i -> f*x_i: no polynomial product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConsistencyError, InputError, as_int


_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)
_LIMIT = _GUARD - 1  # the largest total degree a key holds


def _unpack(key: int, nvars: int) -> tuple:
    return tuple((key >> _WIDTH * s) & _MASK for s in range(nvars - 1, -1, -1))


def _ring(nvars: int) -> int:
    nvars = as_int(nvars, "nvars")
    if nvars < 0:
        raise InputError("nvars must be nonnegative")
    return nvars


def _unit(i: int, nvars: int) -> int:
    """The key of the variable with 0-based position i."""
    return (1 << _WIDTH * nvars) | (1 << _WIDTH * (nvars - 1 - i))


class Polynomial:
    """Immutable-by-convention int polynomial, made by the constructors below and arithmetic."""

    __slots__ = ("nvars", "_terms")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap a term dict built here: nonzero ints on valid packed keys."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._terms = terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._of(_ring(nvars), {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls._of(_ring(nvars), {0: 1})

    @classmethod
    def constant(cls, value: int, nvars: int) -> "Polynomial":
        value = as_int(value, "coefficient")
        return cls._of(_ring(nvars), {0: value} if value else {})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        """The variable with 1-based position ``index``."""
        nvars = _ring(nvars)
        index = as_int(index, "variable index")
        if not 1 <= index <= nvars:
            raise InputError(f"variable index {index} out of range 1..{nvars}")
        return cls._of(nvars, {_unit(index - 1, nvars): 1})

    @classmethod
    def linear(cls, coeffs: Sequence[int]) -> "Polynomial":
        """sum(coeffs[i] * x_{i+1})."""
        nvars = len(coeffs)
        coeffs = [as_int(c, "coefficient") for c in coeffs]
        return cls._of(nvars, {_unit(i, nvars): c for i, c in enumerate(coeffs) if c})

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> dict:
        """The terms keyed by exponent tuples, built on each read."""
        return {_unpack(key, self.nvars): c for key, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        # the top field of the largest key, and -1 >> k is -1
        return max(self._terms, default=-1) >> _WIDTH * self.nvars

    def is_homogeneous(self) -> bool:
        top = _WIDTH * self.nvars
        return len({key >> top for key in self._terms}) <= 1

    def sorted_terms(self):
        """Terms as (exp, coeff) pairs, leading term first."""
        return [
            (_unpack(key, self.nvars), self._terms[key])
            for key in sorted(self._terms, reverse=True)
        ]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise InputError(f"mixed variable counts: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return Polynomial._of(self.nvars, terms)

    def __neg__(self):
        return Polynomial._of(self.nvars, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            new = terms.get(key, 0) - coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return Polynomial._of(self.nvars, terms)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._of(self.nvars, {})._add_product(self, other)

    def _add_product(self, a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """self + a*b, with each term pair of a*b added straight into a copy
        of self's terms, so the product is never built on its own."""
        self._require_same_ring(a)
        self._require_same_ring(b)
        if a.degree() + b.degree() > _LIMIT:
            raise InputError(f"product degree exceeds {_LIMIT}")
        terms = dict(self._terms)
        items = list(b._terms.items())
        for key1, c1 in a._terms.items():
            for key2, c2 in items:
                key = key1 + key2
                new = terms.get(key, 0) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    del terms[key]
        return Polynomial._of(self.nvars, terms)

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace variable i by images[i] (all images in a common ring).

        Horner's scheme: the terms are grouped by the exponent of variable
        i, each group is substituted in the later variables, and the groups
        are folded from the top exponent down as acc = group + acc *
        images[i], one fused ``_add_product`` per step, so each step
        multiplies by one image, never by its powers.  Nothing in the
        package calls it: the rule folds each linear factor and twists by
        ``_scale``, and the tests compare both against it.
        """
        if len(images) != self.nvars:
            raise InputError(
                f"need {self.nvars} images, got {len(images)}"
            )
        if self.nvars == 0:
            return self
        target = images[0].nvars
        for img in images:
            if img.nvars != target:
                raise InputError("images live in different rings")

        zero = Polynomial.zero(target)

        def fold(items, i):
            # items share their exponents before i, so at the end one is left
            if i == self.nvars:
                return Polynomial._of(target, {0: items[0][1]})
            shift = _WIDTH * (self.nvars - 1 - i)
            groups = {}
            for item in items:
                groups.setdefault((item[0] >> shift) & _MASK, []).append(item)
            acc = zero
            for k in range(max(groups, default=0), -1, -1):
                group = fold(groups[k], i + 1) if k in groups else zero
                acc = group._add_product(acc, images[i])
            return acc

        return fold(list(self._terms.items()), 0)

    def _shift(self, i: int, j: int, c: int) -> "Polynomial":
        """x_i -> x_i + c*x_j for 0-based positions i != j, by the binomial
        theorem: the term of c^r x_j^r moves r units from field i to field j."""
        down = _WIDTH * (self.nvars - 1 - i)
        move = (1 << _WIDTH * (self.nvars - 1 - j)) - (1 << down)
        terms = {}
        for key, coeff in self._terms.items():
            k = (key >> down) & _MASK
            for r in range(k + 1):
                terms[key] = terms.get(key, 0) + coeff
                key += move
                coeff = coeff * c * (k - r) // (r + 1)  # exact: C(k, r+1) c^(r+1)
        return Polynomial._of(self.nvars, {key: v for key, v in terms.items() if v})

    def _scale(self, f: int, positions: range) -> "Polynomial":
        """x_i -> f * x_i for each 0-based position i in ``positions``; f != 0.
        The power of f is the total degree less the exponents outside."""
        top = _WIDTH * self.nvars
        outside = [top - _WIDTH * (i + 1) for i in range(self.nvars) if i not in positions]
        terms = {}
        for key, coeff in self._terms.items():
            e = key >> top
            for shift in outside:
                e -= (key >> shift) & _MASK
            terms[key] = coeff * f ** e
        return Polynomial._of(self.nvars, terms)

    def _rotate(self) -> "Polynomial":
        """Move the exponent of x_1 to the last field."""
        top, low = _WIDTH * self.nvars, _WIDTH * (self.nvars - 1)
        return Polynomial._of(self.nvars, {
            (key >> top << top) | (key & ((1 << low) - 1)) << _WIDTH | (key >> low) & _MASK: c
            for key, c in self._terms.items()
        })

    # -- division ------------------------------------------------------------

    def try_divide(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """self / divisor if the quotient lies in Z[x]; None otherwise.

        Single-divisor monomial division, leading terms in graded lex order.
        Each step cancels the current leading term, which strictly decreases,
        so the loop terminates; a zero remainder reconstructs self exactly.
        The quotient monomial is lead - dlead, taken with every guard bit set:
        a field whose exponent would go negative borrows its guard bit.
        """
        self._require_same_ring(divisor)
        if divisor.is_zero:
            raise InputError("division by zero polynomial")
        if self.is_zero:
            return Polynomial.zero(self.nvars)
        dlead = max(divisor._terms)
        dcoeff = divisor._terms[dlead]
        guard = ((1 << _WIDTH * (self.nvars + 1)) - 1) // _MASK * _GUARD
        rem = dict(self._terms)
        quotient = {}
        while rem:
            lead = max(rem)
            coeff = rem[lead]
            if coeff % dcoeff != 0:
                return None
            key = (lead | guard) - dlead
            if key & guard != guard:
                return None
            key ^= guard
            qc = coeff // dcoeff
            # leading terms strictly decrease, so each key is met once
            quotient[key] = qc
            for dkey, dc in divisor._terms.items():
                k = key + dkey
                new = rem.get(k, 0) - qc * dc
                if new:
                    rem[k] = new
                else:
                    rem.pop(k, None)
        return Polynomial._of(self.nvars, quotient)

    def divide_exact(self, divisor: "Polynomial", context: str = "") -> "Polynomial":
        quotient = self.try_divide(divisor)
        if quotient is None:
            raise ConsistencyError(
                f"inexact polynomial division{': ' + context if context else ''}"
            )
        return quotient

    # -- serialization and printing -------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"coeff": coeff, "exp": list(exp)}
                for exp, coeff in self.sorted_terms()
            ],
        }

    def render(self, prefix: str = "t", names: Optional[Sequence[str]] = None) -> str:
        """Human-readable form, e.g. ``t2*t5 - t1*t2 - t1*t5 + t1^2``."""
        if names is None:
            names = [f"{prefix}{i}" for i in range(1, self.nvars + 1)]
        elif len(names) != self.nvars:
            raise InputError("wrong number of variable names")
        if not self._terms:
            return "0"
        fields = list(zip(names, range(_WIDTH * (self.nvars - 1), -1, -_WIDTH)))
        parts = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            factors = []
            for name, shift in fields:
                e = (key >> shift) & _MASK
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial[{self.nvars}]({self.render()})"


# -- Graham positivity ---------------------------------------------------------
#
# For a root system of rank n we expand classes in v_i = -alpha_i:
#   A_n-1 on n torus parameters: alpha_i = t_i - t_(i+1), i = 1..n-1.
#       The t_i do not lie in the root span, so we adjoin a slack variable w
#       with t_i = w + v_1 + ... + v_(i-1); any appearance of w in the result
#       means the input was not a polynomial in the roots at all.
#   B_n: alpha_i = t_i - t_(i+1), alpha_n = t_n.  Inverts over Z.
#   C_n: alpha_n = 2 t_n, so only 2 t_i is an integer combination:
#       2 t_i = -(2 v_i + ... + 2 v_(n-1) + v_n).
#   D_n: alpha_(n-1) = t_(n-1) - t_n, alpha_n = t_(n-1) + t_n:
#       2 t_i = -(2 v_i + ... + 2 v_(n-2) + v_(n-1) + v_n) for i < n,
#       2 t_n = v_(n-1) - v_n.
# For C and D we map 2 t_i, which multiplies a degree-d homogeneous input by
# 2^d, then demand divisibility by 2^d after checking signs.  The map is a
# product of elementary steps, applied to the polynomial in order (1-based):
#   A: x_i -> x_i + x_(i-1) for i = n..2, then x_1 moves to the last field, w.
#   B: x -> -x, then x_i -> x_i + x_(i+1) for i = 1..n-1.
#   C: the B steps, then x_j -> 2 x_j for j < n.
#   D: x -> -x, x_i -> x_i + x_(i+1) for i = 1..n-2, x_n -> x_n - x_(n-1),
#      x_n -> 2 x_n, x_(n-1) -> x_(n-1) + x_n, then x_j -> 2 x_j for j <= n-2.


@dataclass(frozen=True)
class RootBasis:
    """The simple-root data of one classical type at rank n."""

    lie_type: str
    n: int

    def __post_init__(self):
        if self.lie_type not in ("A", "B", "C", "D"):
            raise InputError(f"unknown Lie type {self.lie_type!r}")
        if as_int(self.n, "rank") < 1:
            raise InputError("rank must be at least 1")
        if self.lie_type == "D" and self.n < 2:
            raise InputError("type D needs rank at least 2")

    @property
    def denominator_scale(self) -> int:
        return 2 if self.lie_type in ("C", "D") else 1

    def basis_var_names(self):
        if self.lie_type == "A":
            return [f"v{i}" for i in range(1, self.n)] + ["w"]
        return [f"v{i}" for i in range(1, self.n + 1)]

    def scaled_in_basis(self, p: Polynomial) -> Polynomial:
        """p with each t_i replaced by denominator_scale * t_i in the basis
        variables: the steps of the comment block above, on 0-based positions."""
        n, lie = self.n, self.lie_type
        shift, scale, rotate = Polynomial._shift, Polynomial._scale, Polynomial._rotate
        if lie == "A":
            steps = [(shift, i, i - 1, 1) for i in range(n - 1, 0, -1)] + [(rotate,)]
        else:
            d = lie == "D"
            steps = [(scale, -1, range(n))] + [(shift, i, i + 1, 1) for i in range(n - 1 - d)]
            if d:
                steps += [(shift, n - 1, n - 2, -1), (scale, 2, range(n - 1, n)),
                          (shift, n - 2, n - 1, 1)]
            if lie != "B":
                steps.append((scale, 2, range(n - 1 - d)))
        for step, *args in steps:
            p = step(p, *args)
        return p


@dataclass
class PositivityCertificate:
    """Outcome of expanding a class in negated simple roots.

    When ``ok`` the expansion has only nonnegative integer coefficients and
    substituting v_i = -alpha_i back reproduces the input exactly.  When not
    ``ok``, ``failure`` names the offending monomial or divisibility defect.
    """

    ok: bool
    lie_type: str
    n: int
    degree: int
    scale: int
    expansion: Optional[Polynomial]
    failure: Optional[str]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "lie_type": self.lie_type,
            "n": self.n,
            "degree": self.degree,
            "scale": self.scale,
            "expansion": None if self.expansion is None else self.expansion.to_json_dict(),
            "failure": self.failure,
        }


def root_positivity_certificate(p: Polynomial, basis: RootBasis) -> PositivityCertificate:
    """Certify that p is a nonnegative integer combination of products of
    negated simple roots, or report why it is not."""
    if p.nvars != basis.n:
        raise InputError(
            f"polynomial has {p.nvars} variables, expected {basis.n}"
        )
    if p.is_zero:
        return PositivityCertificate(
            True, basis.lie_type, basis.n, 0, 1, Polynomial.zero(basis.n), None
        )
    if not p.is_homogeneous():
        raise InputError("positivity certificates require homogeneous input")
    degree = p.degree()
    scale = basis.denominator_scale**degree
    scaled = sorted(basis.scaled_in_basis(p)._terms.items(), reverse=True)
    names = basis.basis_var_names()

    def failed(problem, key):
        monomial = Polynomial._of(basis.n, {key: 1}).render(names=names)
        return PositivityCertificate(
            False, basis.lie_type, basis.n, degree, scale, None, problem.format(monomial)
        )

    if basis.lie_type == "A":
        # the slack variable w is the last one, in the lowest field
        for key, _ in scaled:
            if key & _MASK:
                return failed("term {} lies outside the root span", key)
    terms = {}
    for key, coeff in scaled:
        if coeff < 0:
            return failed(f"negative coefficient {coeff} on {{}}", key)
        if coeff % scale != 0:
            return failed(f"coefficient {coeff} on {{}} not divisible by {scale}", key)
        terms[key] = coeff // scale
    expansion = Polynomial._of(basis.n, terms)
    return PositivityCertificate(
        True, basis.lie_type, basis.n, degree, scale, expansion, None
    )
