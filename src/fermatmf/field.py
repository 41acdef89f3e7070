"""Exact arithmetic in towers of algebraic extensions of the rationals.

A tower Q(x1, ..., xr) adjoins each generator modulo a monic defining
polynomial with integer coefficients.  An element is one flat tuple of
``degree`` integer numerators over the monomials x1^i1 * ... * xr^ir, the
first generator varying fastest, and one positive integer denominator
common to all of them (H. Cohen, *A Course in Computational Algebraic
Number Theory*, GTM 138, ch. 4).  The pair is kept in lowest terms, so
equal elements have identical pairs and zero is (0, ..., 0) over 1; the
gcd is only taken when the denominator is not 1.  Each tower computes
once its structure constants (the reduced product of any two basis
monomials), which are integers because the moduli are, and compiles them
once into a straight-line product of two numerator vectors: output c is
the written-out sum of t * x_a * y_b over the table, and the denominators
multiply.  Inversion solves one linear system over Q per numerator
vector.  ``FieldElement.value`` is the nested view: a tuple over the last
generator's powers of values one level down, a Fraction at the base.

The two towers the catalog actually needs are ``omega_field()`` -- Q(w)
with w^2 + w + 1 = 0 -- and ``sextic_field()``, which further adjoins a
cube root ``g`` of -2 for the self-dual curve points.  Irreducibility of
the defining polynomials is trusted; a reducible modulus is detected late,
when some nonzero element fails to invert, and reported as such rather
than silently mis-computing.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import add, sub


class FermatmfError(ValueError):
    """Base of every error the package raises on bad input; the command
    line reports each as a usage error."""


class TowerError(FermatmfError):
    """Malformed tower description or mixed-field operands."""


class UnsupportedFieldError(TowerError):
    """The field does not contain the roots an operation requires."""


class NotInvertibleError(ArithmeticError):
    """A nonzero element had no inverse, so some defining polynomial of
    the tower is not irreducible over the level below it."""


class _Frozen:
    """The base of every value type: immutable once ``__init__`` has set
    its slots through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError("%s is immutable" % type(self).__name__)


_TOWER_CACHE = {}

# Inverses are memoised per tower; the memo is emptied when it reaches this
# many entries, so long runs keep a bounded amount of it.
_INV_CACHE_LIMIT = 512

# Every element equal to an integer in this range, and every element whose
# coefficients all lie in {-1, 0, 1} (the roots of unity among them), is one
# shared object per tower: such constants fill the catalog matrices, and
# sharing them keeps the memory of long runs low.
_SHARED_INTS = range(-64, 65)


def _reduced_powers(modulus):
    """x^n mod ``modulus`` for n = 0 .. 2d-2, as d ascending coefficients."""
    d = len(modulus) - 1
    powers = [tuple(int(i == n) for i in range(d)) for n in range(d)]
    for _ in range(d - 1):
        prev = powers[-1]
        # x * prev, with x^d replaced by -(m_0 + m_1 x + ... + m_(d-1) x^(d-1))
        shifted = (0,) + prev[:-1]
        powers.append(tuple(c - prev[-1] * m for c, m in zip(shifted, modulus)))
    return powers


def _structure_constants(degrees, moduli):
    """The integer (a, b, c, t) with t != 0 in e_a * e_b = sum of t * e_c,
    over every pair of basis monomials.

    Basis index a = a1 + d1*(a2 + d2*(a3 + ...)) stands for x1^a1*x2^a2*...
    """
    powers = [_reduced_powers(m) for m in moduli]
    strides = [prod(degrees[:k]) for k in range(len(degrees))]
    # exponent tuples in basis order: the first generator varies fastest
    exps = [e[::-1] for e in product(*(range(d) for d in reversed(degrees)))]
    table = []
    for a, ea in enumerate(exps):
        for b, eb in enumerate(exps):
            factors = [[(stride * n, p) for n, p in enumerate(pw[i + j]) if p]
                       for pw, stride, i, j in zip(powers, strides, ea, eb)]
            table.extend((a, b, sum(c for c, _ in combo), prod(p for _, p in combo))
                         for combo in product(*factors))
    return tuple(table)


def _compile_product(degree, table):
    """The product of two numerator vectors as one straight-line function,
    generated from the structure constants and compiled once per tower.

    Terms that share (a, b, c) are merged, so output c is the written-out
    sum of t * x_a * y_b; the source holds only integer literals and the
    index names x0.., y0.., never a generator name.
    """
    sums = [{} for _ in range(degree)]
    for a, b, c, t in table:
        sums[c][a, b] = sums[c].get((a, b), 0) + t
    outputs = []
    for terms in sums:
        out = ""
        for (a, b), t in terms.items():
            if t:
                monomial = "x%d*y%d" % (a, b) if abs(t) == 1 \
                    else "%d*x%d*y%d" % (abs(t), a, b)
                out += (" - " if t < 0 else " + ") + monomial
        if not out:
            outputs.append("0")
        else:
            outputs.append(out[3:] if out.startswith(" + ") else "-" + out[3:])
    xs = ", ".join("x%d" % a for a in range(degree))
    ys = ", ".join("y%d" % a for a in range(degree))
    source = ("def _mul(x, y):\n"
              "    %s, = x\n"
              "    %s, = y\n"
              "    return (%s,)\n" % (xs, ys, ", ".join(outputs)))
    namespace = {}
    exec(source, namespace)
    return namespace["_mul"]


class NumberField:
    """A tower of simple extensions of Q, interned by its description.

    ``levels`` is a tuple of (generator name, modulus) pairs where each
    modulus is an ascending tuple of integer coefficients, monic of
    degree >= 2.  Elements are integer numerator vectors over one common
    denominator, with a nested ``value`` view (module docstring).  When
    the tower is interned, its integer structure constants are computed
    and compiled into ``_mul``, one straight-line function of two
    numerator tuples that every product and inverse goes through.
    """

    def __new__(cls, levels=()):
        levels = tuple(levels)
        cached = _TOWER_CACHE.get(levels)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.levels = levels
        self.names = tuple(name for name, _ in levels)
        self._degrees = tuple(len(modulus) - 1 for _, modulus in levels)
        self.degree = prod(self._degrees)
        self._zeros = (0,) * self.degree
        self._table = _structure_constants(
            self._degrees, [modulus for _, modulus in levels])
        self._mul = _compile_product(self.degree, self._table)
        self._inv_cache = {}
        self._ints = {n: _make(self, (n,) + self._zeros[1:], 1)
                      for n in _SHARED_INTS}
        self._signs = {}
        _TOWER_CACHE[levels] = self
        return self

    def __repr__(self):
        if not self.levels:
            return "NumberField(Q)"
        return "NumberField(Q(%s))" % ", ".join(self.names)

    # -- integer numerator vectors --------------------------------------------

    def _inverse(self, v):
        # solve M x = e_0 over Q, where column b of M is v * e_b, by
        # Gauss-Jordan; the solution comes back over its least common
        # denominator, which leaves the pair in lowest terms
        if not any(v):
            raise ZeroDivisionError("division by zero")
        d, zeros = self.degree, self._zeros
        images = [self._mul(v, zeros[:b] + (1,) + zeros[b + 1:])
                  for b in range(d)]
        rows = [[Fraction(image[c]) for image in images] + [Fraction(int(c == 0))]
                for c in range(d)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if rows[r][col]), None)
            if pivot is None:
                raise NotInvertibleError(
                    "nonzero element is not invertible: a defining "
                    "polynomial of %r is not irreducible" % (self,))
            rows[col], rows[pivot] = rows[pivot], rows[col]
            lead = rows[col][col]
            rows[col] = [c / lead for c in rows[col]]
            for r in range(d):
                factor = rows[r][col]
                if r != col and factor:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
        solution = [row[d] for row in rows]
        den = lcm(*(q.denominator for q in solution))
        return tuple(q.numerator * (den // q.denominator) for q in solution), den

    def _element(self, nums, den=1):
        """The element nums/den: reduced to lowest terms, and the shared
        object when there is one."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple([c // g for c in nums])
            if den != 1:
                return _make(self, nums, den)
        if not any(nums[1:]):
            n = nums[0]
            if n in _SHARED_INTS:
                return self._ints[n]
            return _make(self, nums, 1)
        for c in nums:
            if c > 1 or c < -1:
                return _make(self, nums, 1)
        shared = self._signs.get(nums)
        if shared is None:
            shared = self._signs[nums] = _make(self, nums, 1)
        return shared

    # -- public construction ------------------------------------------------

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def gen(self, name):
        """The tower generator with the given name, as an element."""
        if name not in self.names:
            raise TowerError("no generator named %r in %r" % (name, self))
        k = self.names.index(name)
        nums = list(self._zeros)
        nums[prod(self._degrees[:k])] = 1
        return self._element(tuple(nums))

    def __call__(self, x):
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise TowerError("element of %r used in %r" % (x.field, self))
            return x
        if type(x) is int and x in _SHARED_INTS:
            return self._ints[x]
        if isinstance(x, (int, Fraction)):
            return self._element((x.numerator,) + self._zeros[1:], x.denominator)
        raise TowerError("expected an integer or Fraction, got %r" % (x,))

    def inv_value(self, v):
        """The inverse of the element with numerators ``v`` over 1, as a
        (numerators, denominator) pair in lowest terms."""
        cached = self._inv_cache.get(v)
        if cached is None:
            cached = self._inverse(v)
            if len(self._inv_cache) >= _INV_CACHE_LIMIT:
                self._inv_cache.clear()
            self._inv_cache[v] = cached
        return cached


def _nest(coeffs, degrees):
    # the flat vector as nested tuples, the last generator outermost
    if not degrees:
        return coeffs[0]
    stride = len(coeffs) // degrees[-1]
    return tuple(_nest(coeffs[i:i + stride], degrees[:-1])
                 for i in range(0, len(coeffs), stride))


class FieldElement(_Frozen):
    """An exact element of a NumberField; immutable and canonical.

    ``_nums`` holds the integer numerators and ``_den`` the positive common
    denominator, in lowest terms.
    """

    __slots__ = ("field", "_nums", "_den")

    def _fractions(self):
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def value(self):
        """The nested view: a Fraction over Q, else a tuple over the powers
        of the last generator whose entries are values one level down."""
        return _nest(self._fractions(), self.field._degrees)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise TowerError("operands from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return None

    def __add__(self, other):
        o = other if type(other) is FieldElement and other.field is self.field \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._den, o._den
        if da == db:
            return self.field._element(tuple(map(add, self._nums, o._nums)), da)
        return self.field._element(tuple(
            [a * db + b * da for a, b in zip(self._nums, o._nums)]), da * db)

    __radd__ = __add__

    def __neg__(self):
        return self.field._element(tuple([-a for a in self._nums]), self._den)

    def __sub__(self, other):
        o = other if type(other) is FieldElement and other.field is self.field \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._den, o._den
        if da == db:
            return self.field._element(tuple(map(sub, self._nums, o._nums)), da)
        return self.field._element(tuple(
            [a * db - b * da for a, b in zip(self._nums, o._nums)]), da * db)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = other if type(other) is FieldElement and other.field is self.field \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        return field._element(field._mul(self._nums, o._nums),
                              self._den * o._den)

    __rmul__ = __mul__

    def add_product(self, a, b):
        """self + a * b for elements a, b of the same field, normalised
        once: the product's numerators and denominator go straight into
        the sum, unreduced."""
        field = self.field
        if a.field is not field or b.field is not field:
            raise TowerError("operands from different fields")
        nums = field._mul(a._nums, b._nums)
        da, db = self._den, a._den * b._den
        if da == db:
            return field._element(tuple(map(add, self._nums, nums)), da)
        return field._element(tuple(
            [x * db + y * da for x, y in zip(self._nums, nums)]), da * db)

    def _inverse_pair(self):
        # 1/self as (numerators, denominator), not yet in lowest terms: the
        # inverse of the numerator vector, scaled by the denominator
        nums, den = self.field.inv_value(self._nums)
        if self._den != 1:
            nums = tuple([c * self._den for c in nums])
        return nums, den

    def _quotient(self, x, y):
        nums, den = y._inverse_pair()
        return self.field._element(self.field._mul(x._nums, nums), x._den * den)

    def inv(self):
        return self.field._element(*self._inverse_pair())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._quotient(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._quotient(o, self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self.field.one()
        return power(self, n)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.field is other.field and self._den == other._den
                    and self._nums == other._nums)
        if isinstance(other, (int, Fraction)):
            return (self._den == other.denominator
                    and self._nums[0] == other.numerator and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as
        # that Fraction does
        if self.is_rational():
            n = self._nums[0]
            return hash(n) if self._den == 1 else hash(Fraction(n, self._den))
        return hash((id(self.field), self._nums, self._den))

    def __bool__(self):
        return any(self._nums)

    def is_rational(self):
        return not any(self._nums[1:])

    def bit_size(self):
        """The bit length of the largest numerator or the denominator."""
        return max(self._den.bit_length(), *map(int.bit_length, self._nums))

    def __str__(self):
        # integers print as their Fractions do, so only a denominator
        # other than 1 needs the Fractions
        coeffs = self._nums if self._den == 1 else self._fractions()
        return _fmt_value(self.field, coeffs, len(self.field.levels))

    __repr__ = __str__


def power(base, n):
    """base ** n for an int n >= 1, by square-and-multiply from the low
    bit, squaring only while bits remain: x ** 1, x ** 2, x ** 3 cost 0, 1,
    2 products."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


_new_element = object.__new__
_set_field = FieldElement.field.__set__
_set_nums = FieldElement._nums.__set__
_set_den = FieldElement._den.__set__


def _make(field, nums, den):
    # the slots are filled through their descriptors, past the immutable
    # __setattr__; only NumberField._element and the shared integers call it
    element = _new_element(FieldElement)
    _set_field(element, field)
    _set_nums(element, nums)
    _set_den(element, den)
    return element


def _fmt_value(field, v, k):
    """Render in the literal grammar: rationals, generator names, *, +, -."""
    if k == 0:
        return _decimal(v[0])
    name = field.names[k - 1]
    degree = field._degrees[k - 1]
    stride = len(v) // degree
    terms = []
    for power in range(degree - 1, -1, -1):
        c = v[power * stride:(power + 1) * stride]
        if any(c):
            terms.append((_fmt_value(field, c, k - 1),
                          "*".join([name] * power)))
    return format_sum(terms)


def _decimal(q):
    """str(q) for an int or Fraction q of any length.  str stops at the
    interpreter's int digit limit where it has one; Decimal does not."""
    try:
        return str(q)
    except ValueError:
        if q.denominator != 1:
            return _decimal(q.numerator) + "/" + _decimal(q.denominator)
        return str(Decimal(q.numerator))


def format_sum(terms):
    """Join (coefficient, atom) string pairs into one signed sum, as field
    elements and polynomials print: an empty atom leaves the bare
    coefficient, a coefficient 1 or -1 leaves the atom or its negation, a
    coefficient that is a sum or difference goes in parentheses, and a
    leading minus becomes the separator.  No terms print as 0."""
    pieces = []
    for cs, atom in terms:
        if not atom:
            pieces.append(cs)
        elif cs == "1":
            pieces.append(atom)
        elif cs == "-1":
            pieces.append("-" + atom)
        elif "+" in cs or "-" in cs[1:]:
            pieces.append("(" + cs + ")*" + atom)
        else:
            pieces.append(cs + "*" + atom)
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def rationals():
    """The bare rationals (empty tower)."""
    return NumberField()


def _integral(name, c):
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise TowerError("defining polynomial for %r has the non-integral "
                             "coefficient %s" % (name, c))
        return c.numerator
    if isinstance(c, int):
        return int(c)
    raise TowerError("expected an integer or Fraction, got %r" % (c,))


def make_tower(spec):
    """Build a NumberField from (name, ascending coefficients) pairs.

    Coefficients are integers, or Fractions with denominator 1; each
    polynomial must be monic of degree at least 2, so its root is an
    algebraic integer and the structure constants stay integral.  A
    non-integral coefficient is refused.  Irreducibility is trusted, not
    checked.
    """
    levels = []
    seen = set()
    for name, coeffs in spec:
        if name in seen:
            raise TowerError("duplicate generator name %r" % name)
        seen.add(name)
        coeffs = tuple(_integral(name, c) for c in coeffs)
        if len(coeffs) < 3:
            raise TowerError("defining polynomial for %r has degree < 2" % name)
        if coeffs[-1] != 1:
            raise TowerError("defining polynomial for %r is not monic" % name)
        levels.append((name, coeffs))
    return NumberField(tuple(levels))


def omega_field():
    """Q(w) with w^2 + w + 1 = 0: the field of every small-matrix family."""
    return make_tower([("w", (1, 1, 1))])


def sextic_field():
    """Q(w, g) with w^2 + w + 1 = 0 and g^3 = -2, degree 6 over Q.

    Hosts the self-dual curve points [1:b:1] with b^3 = -2 (the three such
    b are g, g*w and g*w*w).
    """
    return make_tower([("w", (1, 1, 1)), ("g", (2, 0, 0, 1))])


class RootTable:
    """The cube roots that parameterize the families."""

    def __init__(self, roots_of_minus_one, primitive_cube_roots):
        self.roots_of_minus_one = roots_of_minus_one
        self.primitive_cube_roots = primitive_cube_roots


def special_roots(field):
    """Cube roots of -1 and primitive cube roots of unity in ``field``.

    The field must contain w (a primitive cube root of unity); the three
    cube roots of -1 are then -1, -w, -w*w.
    """
    if not field.levels or field.levels[0] != ("w", (1, 1, 1)):
        raise UnsupportedFieldError("field %r does not contain w" % (field,))
    w = field.gen("w")
    one = field.one()
    return RootTable(
        roots_of_minus_one=(-one, -w, -w * w),
        primitive_cube_roots=(w, w * w),
    )
