"""Sparse exact multivariate polynomials over a NumberField.

A polynomial lives in a ring of ``nvars`` variables: the four variables
x1, x2, x3, x4 of the Fermat cubic by default, or the parameters of a
solution space in ``equiv``.  Monomials are exponent ``nvars``-tuples; a
polynomial is a finite table mapping monomials to nonzero field elements,
so equal polynomials have identical tables.  All printing uses graded
lexicographic order with x1 > x2 > x3 > x4, which keeps reports and
fixtures diffable; parsing, ``variable`` and ``eval`` speak of x1..x4,
and printing does too unless ``format`` is given other names.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .field import (FermatmfError, FieldElement, TowerError, _Frozen,
                    format_sum, power)

NVARS = 4
# the exponent tuples of x1..x4: every variable, and so every linear term
# built from one, shares them
LINEAR_EXPS = tuple(tuple(int(i == k) for i in range(NVARS))
                    for k in range(NVARS))

# Polynomial.zero(field, nvars), one per (field, nvars); fields are
# interned and nvars stays small, so this stays small
_ZEROS = {}


def grlex_key(exps):
    """Sort key for graded lexicographic order, x1 > x2 > x3 > x4."""
    return (sum(exps), exps)


class ParseError(FermatmfError):
    """Syntax error in the polynomial grammar; carries the position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownVariableError(ParseError):
    pass


class Polynomial(_Frozen):
    """An immutable sparse polynomial over a fixed NumberField in ``nvars``
    variables.

    Polynomials combine only with polynomials over the same field in the
    same number of variables; scalars coerce into the polynomial's ring.
    """

    __slots__ = ("field", "terms", "nvars", "_neg")

    def __init__(self, field, terms=None, nvars=NVARS):
        table = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(not isinstance(e, int) or e < 0 for e in exps):
                    raise ValueError("bad monomial %r" % (exps,))
                coeff = field(coeff)
                if coeff:
                    prev = table.get(exps)
                    table[exps] = coeff if prev is None else prev + coeff
                    if not table[exps]:
                        del table[exps]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", table)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_neg", None)

    def _with_terms(self, table):
        """A polynomial in this ring holding ``table`` as is (no checks);
        the slots are filled through their descriptors, past the immutable
        __setattr__."""
        out = _new_poly(Polynomial)
        _set_field(out, self.field)
        _set_terms(out, table)
        _set_nvars(out, self.nvars)
        _set_neg(out, None)
        return out

    # -- construction helpers ----------------------------------------------

    @classmethod
    def zero(cls, field, nvars=NVARS):
        """The zero polynomial over ``field`` in ``nvars`` variables: one
        shared instance per (field, nvars)."""
        zero = _ZEROS.get((field, nvars))
        if zero is None:
            zero = _ZEROS[field, nvars] = cls(field, None, nvars)
        return zero

    @classmethod
    def one(cls, field, nvars=NVARS):
        return cls(field, {(0,) * nvars: field.one()}, nvars)

    @classmethod
    def constant(cls, field, c, nvars=NVARS):
        return cls(field, {(0,) * nvars: field(c)}, nvars)

    @classmethod
    def variable(cls, field, index, nvars=NVARS):
        """x_index for index in 1..nvars."""
        if not 1 <= index <= nvars:
            raise ValueError("variable index out of range: %r" % (index,))
        exps = LINEAR_EXPS[index - 1] if nvars == NVARS else \
            tuple(int(i == index - 1) for i in range(nvars))
        return cls(field, {exps: field.one()}, nvars)

    # -- ring structure ------------------------------------------------------

    def _coerce_scalar(self, other):
        if isinstance(other, Polynomial):
            if other.field is not self.field:
                raise TowerError("polynomials over different fields")
            if other.nvars != self.nvars:
                raise TowerError("polynomials in %d and %d variables"
                                 % (self.nvars, other.nvars))
            return None
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        s = self._coerce_scalar(other)
        if s is NotImplemented:
            return NotImplemented
        if s is not None:
            other = Polynomial.constant(self.field, s, self.nvars)
        table = dict(self.terms)
        for exps, coeff in other.terms.items():
            prev = table.get(exps)
            total = coeff if prev is None else prev + coeff
            if total:
                table[exps] = total
            elif prev is not None:
                del table[exps]
        return self._with_terms(table)

    __radd__ = __add__

    def _negated(self):
        return self._with_terms({e: -c for e, c in self.terms.items()})

    def __neg__(self):
        # memoised on the polynomial: the catalog displays negate the same
        # shared forms and variables over and over, and then share the
        # negations too
        neg = self._neg
        if neg is None:
            neg = self._negated()
            object.__setattr__(self, "_neg", neg)
        return neg

    def __sub__(self, other):
        s = self._coerce_scalar(other)
        if s is NotImplemented:
            return NotImplemented
        if s is not None:
            other = Polynomial.constant(self.field, s, self.nvars)
        return self + other._negated()

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not Polynomial or other.field is not self.field \
                or other.nvars != self.nvars:
            s = self._coerce_scalar(other)
            if s is NotImplemented:
                return NotImplemented
            if s is not None:
                return self._with_terms(
                    {e: c * s for e, c in self.terms.items()} if s else {})
        table = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                prev = table.get(exps)
                total = c1 * c2 if prev is None else prev.add_product(c1, c2)
                if total:
                    table[exps] = total
                elif prev is not None:
                    del table[exps]
        return self._with_terms(table)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return Polynomial.one(self.field, self.nvars)
        return power(self, n)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.field is other.field and self.nvars == other.nvars
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction, FieldElement)):
            return self == Polynomial.constant(self.field, other, self.nvars)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero())

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def linear_part(self):
        """The sum of the degree-1 terms (everything else dropped)."""
        return self._with_terms(
            {e: c for e, c in self.terms.items() if sum(e) == 1})

    def restrict(self, var, value):
        """Substitute ``value`` for variable number ``var`` (1-based).

        ``value`` is a scalar or a polynomial in the same ring.  Each term
        c*m*x_var^e adds c*m*value^e into one table, so the result is built
        once, whatever the number of terms.
        """
        if not 1 <= var <= self.nvars:
            raise ValueError("variable index out of range: %r" % (var,))
        s = self._coerce_scalar(value)
        if s is NotImplemented:
            raise TypeError("cannot substitute %r" % (value,))
        if s is not None:
            value = Polynomial.constant(self.field, s, self.nvars)
        i = var - 1
        powers = {}
        table = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e not in powers:
                powers[e] = value ** e
            rest = exps[:i] + (0,) + exps[i + 1:]
            for shift, c in powers[e].terms.items():
                key = tuple(map(add, rest, shift))
                prod = coeff * c
                prev = table.get(key)
                total = prod if prev is None else prev + prod
                if total:
                    table[key] = total
                elif prev is not None:
                    del table[key]
        return self._with_terms(table)

    def eval(self, point):
        """Exact value at a point: one field element (or int/Fraction) per
        variable, ``nvars`` of them."""
        point = [self.field(c) for c in point]
        if len(point) != self.nvars:
            raise ValueError("a point in %d variables has %d coordinates"
                             % (self.nvars, len(point)))
        total = self.field.zero()
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    # -- printing ------------------------------------------------------------

    def format(self, names=None):
        """The polynomial printed with ``names`` for its variables, x1, x2,
        ... by default, in graded lexicographic order."""
        if names is None:
            names = ["x%d" % (i + 1) for i in range(self.nvars)]
        return format_sum(
            (str(self.terms[exps]),
             "*".join(names[i] if e == 1 else "%s^%d" % (names[i], e)
                      for i, e in enumerate(exps) if e))
            for exps in sorted(self.terms, key=grlex_key, reverse=True))

    def __str__(self):
        return self.format()

    __repr__ = __str__


_new_poly = object.__new__
_set_field = Polynomial.field.__set__
_set_terms = Polynomial.terms.__set__
_set_nvars = Polynomial.nvars.__set__
_set_neg = Polynomial._neg.__set__


def fermat_cubic(field):
    """f = x1^3 + x2^3 + x3^3 + x4^3."""
    one = field.one()
    return Polynomial(field, {(3, 0, 0, 0): one, (0, 3, 0, 0): one,
                              (0, 0, 3, 0): one, (0, 0, 0, 3): one})


def fermat_cubic3(field):
    """f3 = x1^3 + x2^3 + x3^3, the restriction of f to x4 = 0."""
    one = field.one()
    return Polynomial(field, {(3, 0, 0, 0): one, (0, 3, 0, 0): one,
                              (0, 0, 3, 0): one})


# -- parsing ------------------------------------------------------------------

# A power or product is expanded as it is parsed, so its exponent and its
# total degree are bounded: a short input cannot ask for hours of expansion.
MAX_POWER_DEGREE = 12
# Each parenthesis and each sign inside a product nests one more call; the
# bound keeps a deep input a ParseError, far from the interpreter's
# recursion limit.
MAX_NESTING = 100
# A number literal has at most this many digits, counted before int() reads
# it, and a product or power whose coefficients could pass it is refused
# before it multiplies, so the limit does not depend on the interpreter's.
MAX_DIGITS = 4300
# the size, in _size's terms, of the largest number of MAX_DIGITS digits
_MAX_SIZE = (10 ** MAX_DIGITS).bit_length() - 1
# The products and powers of one input text, a matrix's cells together,
# create at most this many terms, so the parse time of a long input is
# bounded as well as that of each product.
MAX_TERMS = 10000


def _is_digit(ch):
    """An ASCII digit; str.isdigit also admits '²', '٣' and '１'."""
    return "0" <= ch <= "9"


class TermBudget:
    """The terms that the products and powers of one input may still create;
    parse_matrix shares one among a matrix's cells."""

    def __init__(self):
        self.left = MAX_TERMS

    def spend(self, p, position):
        """Charge the terms of a product or power p; return p."""
        self.left -= len(p.terms)
        if self.left < 0:
            raise ParseError("products and powers above %d terms" % MAX_TERMS,
                             position)
        return p


class _Tokens:
    def __init__(self, text, budget):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.budget = budget

    def nest(self):
        """Enter one nesting level; the caller leaves it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d" % MAX_NESTING)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def error(self, message):
        raise ParseError(message, self.pos)

    def take_int(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        if self.pos - start > MAX_DIGITS:
            raise ParseError("number too long", start)
        return int(self.text[start:self.pos])

    def take_name(self):
        # a name is letters followed by digits, so "x1x2" splits into two
        # variable factors (the grammar's optional *)
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos], start


def parse(field, text, budget=None):
    """Parse the polynomial grammar over ``field``.

    Variables are x1..x4; ``^`` takes an integer exponent of at most
    ``MAX_POWER_DEGREE``, the total degree of a power or product is at most
    that too, and powers do not chain (``(x1^2)^3``, not ``x1^2^3``); ``*``
    may be omitted between variable/generator/parenthesized factors;
    parentheses and signs inside a product nest at most ``MAX_NESTING``
    deep; coefficients are rationals ``p/q`` and the field's generator names,
    numbers have at most ``MAX_DIGITS`` digits, and so do the coefficients of
    a product or power, as far as bit lengths tell before it multiplies.
    The products and powers draw their terms from ``budget``, a fresh
    ``TermBudget`` unless one is shared among the texts of one input.
    """
    toks = _Tokens(text, TermBudget() if budget is None else budget)
    p = _parse_sum(field, toks)
    if toks.peek() is not None:
        toks.error("unexpected %r" % toks.peek())
    return p


def parse_scalar(field, text):
    """Parse a field-element literal (a degree-0 polynomial)."""
    p = parse(field, text)
    if not p.is_constant():
        raise ParseError("expected a constant, got %r" % text, 0)
    return p.constant_term()


def _parse_sum(field, toks):
    """A signed sum of products, added up in one table: the terms come in
    the order of p + q + ..., and a sum of one product is that product."""
    ch = toks.peek()
    negate = False
    if ch in ("+", "-"):
        toks.pos += 1
        negate = ch == "-"
    p = _parse_product(field, toks)
    if negate:
        p = -p
    table = None
    while True:
        ch = toks.peek()
        if ch not in ("+", "-"):
            return p if table is None else p._with_terms(table)
        toks.pos += 1
        q = _parse_product(field, toks)
        if table is None:
            table = dict(p.terms)
        for exps, coeff in q.terms.items():
            if ch == "-":
                coeff = -coeff
            prev = table.get(exps)
            total = coeff if prev is None else prev + coeff
            if total:
                table[exps] = total
            elif prev is not None:
                del table[exps]


def _degree(p):
    return max(map(sum, p.terms), default=0)


def _size(p):
    """floor(log2) of p's largest numerator or denominator, 0 for +/-1: a
    product of parts of sizes s and t has size s + t or s + t + 1."""
    return max((c.bit_size() for c in p.terms.values()), default=1) - 1


def _parse_product(field, toks):
    p = _parse_power(field, toks)
    while True:
        ch = toks.peek()
        if ch == "*":
            toks.pos += 1
        elif ch is None or not (ch.isalpha() or ch == "("):
            return p
        # else the grammar allows omitting * before a variable-like factor
        start = toks.pos
        q = _parse_power(field, toks)
        if _degree(p) + _degree(q) > MAX_POWER_DEGREE:
            raise ParseError("product above total degree %d"
                             % MAX_POWER_DEGREE, start)
        if _size(p) + _size(q) > _MAX_SIZE:
            raise ParseError("product above %d digits" % MAX_DIGITS, start)
        p = toks.budget.spend(p * q, start)


def _parse_power(field, toks):
    p = _parse_atom(field, toks)
    if toks.peek() != "^":
        return p
    toks.pos += 1
    toks._skip_ws()
    start = toks.pos
    n = toks.take_int()
    degree = _degree(p) * n
    if n > MAX_POWER_DEGREE or degree > MAX_POWER_DEGREE:
        raise ParseError("power above exponent or total degree %d"
                         % MAX_POWER_DEGREE, start)
    if n * _size(p) > _MAX_SIZE:
        raise ParseError("power above %d digits" % MAX_DIGITS, start)
    if toks.peek() == "^":
        toks.error("chained powers need parentheses")
    return toks.budget.spend(p ** n, start)


def _parse_atom(field, toks):
    ch = toks.peek()
    if ch is None:
        toks.error("unexpected end of input")
    if ch == "(":
        toks.nest()
        toks.pos += 1
        p = _parse_sum(field, toks)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.pos += 1
        toks.depth -= 1
        return p
    if ch == "-":
        # a sign inside a product negates a power: x2*-x1^2 = -(x1^2)*x2
        toks.nest()
        toks.pos += 1
        p = -_parse_power(field, toks)
        toks.depth -= 1
        return p
    if _is_digit(ch):
        num = toks.take_int()
        if toks.peek() == "/":
            toks.pos += 1
            den = toks.take_int()
            if den == 0:
                toks.error("zero denominator")
            return Polynomial.constant(field, Fraction(num, den))
        return Polynomial.constant(field, num)
    if ch.isalpha():
        name, start = toks.take_name()
        if name and name[0] == "x":
            try:
                index = int(name[1:])
            except ValueError:
                index = None
            if index is None or not 1 <= index <= NVARS:
                raise UnknownVariableError("unknown variable %r" % name, start)
            return Polynomial.variable(field, index)
        if name in field.names:
            return Polynomial.constant(field, field.gen(name))
        raise UnknownVariableError("unknown name %r" % name, start)
    toks.error("unexpected %r" % ch)
