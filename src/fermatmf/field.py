"""Exact arithmetic in towers of algebraic extensions of the rationals.

A tower Q(x1, ..., xr) adjoins each generator modulo a monic defining
polynomial with rational coefficients.  An element is one flat tuple of
``degree`` reduced Fractions over the monomials x1^i1 * ... * xr^ir, the
first generator varying fastest, so equal elements have identical tuples.
Each tower computes once the structure constants (the reduced product of
any two basis monomials): multiplication is one pass over that table, and
inversion solves one linear system over Q.  ``FieldElement.value`` is the
nested view: a tuple over the last generator's powers of values one level
down, a Fraction at the base.

The two towers the catalog actually needs are ``omega_field()`` -- Q(w)
with w^2 + w + 1 = 0 -- and ``sextic_field()``, which further adjoins a
cube root ``g`` of -2 for the self-dual curve points.  Irreducibility of
the defining polynomials is trusted; a reducible modulus is detected late,
when some nonzero element fails to invert, and reported as such rather
than silently mis-computing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod


class TowerError(Exception):
    """Malformed tower description or mixed-field operands."""


class UnsupportedFieldError(TowerError):
    """The field does not contain the roots an operation requires."""


class NotInvertibleError(ArithmeticError):
    """A nonzero element had no inverse, so some defining polynomial of
    the tower is not irreducible over the level below it."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TowerError("expected an integer or Fraction, got %r" % (x,))


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
    powers = [tuple(Fraction(int(i == n)) for i in range(d)) for n in range(d)]
    for _ in range(d - 1):
        prev = powers[-1]
        # x * prev, with x^d replaced by -(m_0 + m_1 x + ... + m_(d-1) x^(d-1))
        shifted = (Fraction(0),) + prev[:-1]
        powers.append(tuple(c - prev[-1] * m for c, m in zip(shifted, modulus)))
    return powers


def _structure_constants(degrees, moduli):
    """``table[a][b]`` lists the (c, t) with e_a * e_b = sum of t * e_c.

    Basis index a = a1 + d1*(a2 + d2*(a3 + ...)) stands for x1^a1*x2^a2*...;
    an integral constant is stored as an int, so +-1 is cheap to spot.
    """
    powers = [_reduced_powers(m) for m in moduli]
    strides = [prod(degrees[:k]) for k in range(len(degrees))]
    # exponent tuples in basis order: the first generator varies fastest
    exps = [e[::-1] for e in product(*(range(d) for d in reversed(degrees)))]
    table = []
    for ea in exps:
        row = []
        for eb in exps:
            factors = [[(stride * n, p) for n, p in enumerate(pw[i + j]) if p]
                       for pw, stride, i, j in zip(powers, strides, ea, eb)]
            terms = []
            for combo in product(*factors):
                t = prod(p for _, p in combo)
                terms.append((sum(c for c, _ in combo),
                              int(t) if t.denominator == 1 else t))
            row.append(tuple(terms))
        table.append(row)
    return table


class NumberField:
    """A tower of simple extensions of Q, interned by its description.

    ``levels`` is a tuple of (generator name, modulus) pairs where each
    modulus is an ascending tuple of rational coefficients, monic of
    degree >= 2.  Elements are flat coefficient vectors with a nested
    ``value`` view (module docstring); the structure constants are
    computed once, when the tower is interned.
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
        self._zeros = (Fraction(0),) * self.degree
        self._table = _structure_constants(
            self._degrees, [modulus for _, modulus in levels])
        self._inv_cache = {}
        self._ints = {n: FieldElement(self, self._lift(Fraction(n)))
                      for n in _SHARED_INTS}
        self._signs = {}
        _TOWER_CACHE[levels] = self
        return self

    def __repr__(self):
        if not self.levels:
            return "NumberField(Q)"
        return "NumberField(Q(%s))" % ", ".join(self.names)

    # -- flat coefficient vectors ---------------------------------------------

    def _lift(self, q):
        return (q,) + self._zeros[1:]

    def _mul(self, x, y):
        out = list(self._zeros)
        table = self._table
        ys = [(b, yb) for b, yb in enumerate(y) if yb]
        for a, xa in enumerate(x):
            if not xa:
                continue
            row = table[a]
            for b, yb in ys:
                p = xa * yb
                for c, t in row[b]:
                    if t == 1:
                        out[c] += p
                    elif t == -1:
                        out[c] -= p
                    else:
                        out[c] += p * t
        return tuple(out)

    def _inverse(self, v):
        # solve M x = e_0 where column b of M is v * e_b, by Gauss-Jordan
        if not any(v):
            raise ZeroDivisionError("division by zero")
        d, zeros = self.degree, self._zeros
        images = [self._mul(v, zeros[:b] + (Fraction(1),) + zeros[b + 1:])
                  for b in range(d)]
        rows = [[image[c] for image in images] + [Fraction(int(c == 0))]
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
        return tuple(row[d] for row in rows)

    def _element(self, coeffs):
        q = coeffs[0]
        if not any(coeffs[1:]):
            if q.denominator == 1 and q.numerator in _SHARED_INTS:
                return self._ints[q.numerator]
            return FieldElement(self, coeffs)
        key = []
        for c in coeffs:
            n = c.numerator
            if c.denominator != 1 or n > 1 or n < -1:
                return FieldElement(self, coeffs)
            key.append(n)
        key = tuple(key)
        shared = self._signs.get(key)
        if shared is None:
            shared = self._signs[key] = FieldElement(self, coeffs)
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
        coeffs = list(self._zeros)
        coeffs[prod(self._degrees[:k])] = Fraction(1)
        return self._element(tuple(coeffs))

    def __call__(self, x):
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise TowerError("element of %r used in %r" % (x.field, self))
            return x
        if type(x) is int and x in _SHARED_INTS:
            return self._ints[x]
        return self._element(self._lift(_as_fraction(x)))

    def inv_value(self, v):
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


class FieldElement:
    """An exact element of a NumberField; immutable and canonical."""

    __slots__ = ("field", "_coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    @property
    def value(self):
        """The nested view: a Fraction over Q, else a tuple over the powers
        of the last generator whose entries are values one level down."""
        return _nest(self._coeffs, self.field._degrees)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise TowerError("operands from different fields")
            return other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.field(other)._coeffs
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        # a zero summand keeps the coefficient object: no work, and zero
        # coefficients stay shared
        return self.field._element(tuple(
            a + b if b else a for a, b in zip(self._coeffs, v)))

    __radd__ = __add__

    def __neg__(self):
        return self.field._element(tuple(-a if a else a for a in self._coeffs))

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.field._element(tuple(
            a - b if b else a for a, b in zip(self._coeffs, v)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.field._element(self.field._mul(self._coeffs, v))

    __rmul__ = __mul__

    def inv(self):
        return self.field._element(self.field.inv_value(self._coeffs))

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.field._element(self.field._mul(
            self._coeffs, self.field.inv_value(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.field._element(self.field._mul(
            v, self.field.inv_value(self._coeffs)))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs[0] == other and self.is_rational()
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self._coeffs))

    def __bool__(self):
        return any(self._coeffs)

    def is_rational(self):
        return not any(self._coeffs[1:])

    def as_rational(self):
        return self._coeffs[0]

    def __str__(self):
        return _fmt_value(self.field, self._coeffs, len(self.field.levels))

    __repr__ = __str__


def _fmt_value(field, v, k):
    """Render in the literal grammar: rationals, generator names, *, +, -."""
    if k == 0:
        return str(v[0])
    name = field.names[k - 1]
    degree = field._degrees[k - 1]
    stride = len(v) // degree
    terms = []
    for power in range(degree - 1, -1, -1):
        c = v[power * stride:(power + 1) * stride]
        if not any(c):
            continue
        cs = _fmt_value(field, c, k - 1)
        if power == 0:
            terms.append(cs)
            continue
        gen_part = "*".join([name] * power)
        if cs == "1":
            terms.append(gen_part)
        elif cs == "-1":
            terms.append("-" + gen_part)
        elif _needs_parens(cs):
            terms.append("(" + cs + ")*" + gen_part)
        else:
            terms.append(cs + "*" + gen_part)
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _needs_parens(s):
    return "+" in s or "-" in s[1:]


def rationals():
    """The bare rationals (empty tower)."""
    return NumberField()


def make_tower(spec):
    """Build a NumberField from (name, ascending coefficients) pairs.

    Coefficients are integers or Fractions; each polynomial must be monic
    of degree at least 2.  Irreducibility is trusted, not checked.
    """
    levels = []
    seen = set()
    for name, coeffs in spec:
        if name in seen:
            raise TowerError("duplicate generator name %r" % name)
        seen.add(name)
        coeffs = tuple(_as_fraction(c) for c in coeffs)
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

    def __init__(self, omega, roots_of_minus_one, primitive_cube_roots):
        self.omega = omega
        self.roots_of_minus_one = roots_of_minus_one
        self.primitive_cube_roots = primitive_cube_roots


def special_roots(field):
    """Cube roots of -1 and primitive cube roots of unity in ``field``.

    The field must contain w (a primitive cube root of unity); the three
    cube roots of -1 are then -1, -w, -w*w.
    """
    if not field.levels or field.levels[0] != ("w", (Fraction(1), Fraction(1), Fraction(1))):
        raise UnsupportedFieldError("field %r does not contain w" % (field,))
    w = field.gen("w")
    one = field.one()
    return RootTable(
        omega=w,
        roots_of_minus_one=(-one, -w, -w * w),
        primitive_cube_roots=(w, w * w),
    )
