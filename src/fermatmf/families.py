"""Constructors for the catalog of matrix factorizations over the Fermat cubic.

Every named family lives here: the 3x3 curve and surface forms, the orientable
and non-orientable 4x4 pairs, the five 5x5 pairs with their un-normalized
variants, and the 6x6 skew pencil x4*Gamma + alpha block together with its
transport matrices.  A listing is named and built
through ``FamilyId`` alone: one table, ``_FAMILIES``, maps each family name
to its parameter keys and the builder of its certified pair.  A print
discrepancy that breaks phi*psi = f*Id is treated as a defect of the source
display, fixed here, and documented in ERRATA.md.

Each display shape is written once, and no build multiplies matrices.
The sigma families rest on one splitting f = w1*v1 + w2*v2 with
v_t = v_t'*v_t''; each is a row of ``_SLOT_ROWS`` that fills the 4x4
``_sigma_4x4`` or the 5x5 ``_rho_5x5`` or ``_mu_5x5`` from its form set.
A row is proven once per process over slot symbols, and a listing is
certified by that proof and its checked form set (``_slot_instance``).
eta3 and theta3 share one 3x3 display; a 3x3 pair is phi and its
adjugate, certified by det(phi) = f, and phi_lambda and the six_gen
pencil Lambda are paired with their Pfaffian adjoints, certified by
Pf(phi) = f and Pf(Lambda) = f; ``build_six_gen`` is the raw pencil.
A partner name (a ``psi_*`` name, omega, nu or nubar) is, in
``FamilyId.build`` alone, its base name's pair swapped (``_PARTNERS``).
"""

from __future__ import annotations

from .field import FermatmfError, TowerError, _Frozen, omega_field, rationals
from .matrix import (
    MatrixFactorization,
    PolyMatrix,
    adjugate,
    block,
    determinant,
    pfaffian,
    pfaffian_adjoint,
    slot_residuals,
)
from .poly import Polynomial, fermat_cubic, fermat_cubic3, parse_scalar


class FamilyError(FermatmfError):
    """Raised when family parameters violate their defining constraints."""


# -- parameter types ------------------------------------------------------------

class SigmaPerm(_Frozen):
    """A permutation (i j s) of {2,3,4} with i < j; exactly three are legal."""

    __slots__ = ("i", "j", "s")
    _LEGAL = ((2, 3, 4), (2, 4, 3), (3, 4, 2))

    def __init__(self, i, j, s):
        if (i, j, s) not in self._LEGAL:
            raise FamilyError(
                "sigma must be one of (2,3,4), (2,4,3), (3,4,2); got (%r,%r,%r)"
                % (i, j, s))
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "s", s)

    @classmethod
    def all(cls):
        return tuple(cls(*t) for t in cls._LEGAL)

    @classmethod
    def from_string(cls, text):
        """Parse "234"-style digit triples."""
        if len(text) != 3 or not all("0" <= c <= "9" for c in text):
            raise FamilyError("sigma string must be three digits, got %r" % (text,))
        return cls(int(text[0]), int(text[1]), int(text[2]))

    def __eq__(self, other):
        if not isinstance(other, SigmaPerm):
            return NotImplemented
        return (self.i, self.j, self.s) == (other.i, other.j, other.s)

    def __hash__(self):
        return hash((self.i, self.j, self.s))

    def __repr__(self):
        return "SigmaPerm(%d, %d, %d)" % (self.i, self.j, self.s)


class _Point(_Frozen):
    """A point given by its field and its coordinates in a chart."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


class SurfacePoint(_Point):
    """A point of V(f) in projective 3-space, kept in one of the three charts
    [l1:l2:l3:1], [l1:l2:1:0], [l1:1:0:0].

    ``chart`` is the 1-based index of the trailing unit coordinate (4, 3, or 2).
    """

    __slots__ = ("field", "coords", "chart")

    def __init__(self, field, coords):
        coords = tuple(field(c) for c in coords)
        if len(coords) != 4:
            raise FamilyError("a surface point needs 4 coordinates")
        if coords[3] == 1:
            chart = 4
        elif coords[3] == 0 and coords[2] == 1:
            chart = 3
        elif coords[3] == 0 and coords[2] == 0 and coords[1] == 1:
            chart = 2
        else:
            raise FamilyError(
                "coordinates fit none of the charts [l1:l2:l3:1], "
                "[l1:l2:1:0], [l1:1:0:0]")
        if sum((c ** 3 for c in coords), field(0)) != 0:
            raise FamilyError("point does not lie on the surface f = 0")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "chart", chart)


P0_COORDS = (-1, 0, 1)


class CurvePoint(_Point):
    """A point of the plane curve V(f3) in chart [a:b:1] or [l1:1:0], with the
    excluded point P0 = [-1:0:1] rejected.

    In the affine chart the auxiliary constant ``e`` = b^2/(a+1) is derived
    (a = -1 only happens at P0, so the quotient always exists) and satisfies
    e*b = -(a^2 - a + 1) and e*(a+1) = b^2.
    """

    __slots__ = ("field", "coords", "chart", "e")

    def __init__(self, field, coords):
        coords = tuple(field(c) for c in coords)
        if len(coords) != 3:
            raise FamilyError("a curve point needs 3 coordinates")
        if coords[2] == 1:
            chart = 3
        elif coords[2] == 0 and coords[1] == 1:
            chart = 2
        else:
            raise FamilyError(
                "coordinates fit neither chart [a:b:1] nor [l1:1:0]")
        if sum((c ** 3 for c in coords), field(0)) != 0:
            raise FamilyError("point does not lie on the curve f3 = 0")
        if coords == tuple(field(c) for c in P0_COORDS):
            raise FamilyError("the point [-1:0:1] is excluded")
        e = None
        if chart == 3:
            a, b = coords[0], coords[1]
            e = b * b / (a + 1)
            if e * b != -(a * a - a + 1) or e * (a + 1) != b * b:
                raise FamilyError("inconsistent auxiliary constant e")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "e", e)

    @classmethod
    def affine(cls, field, a, b):
        return cls(field, (a, b, 1))

    @classmethod
    def at_infinity(cls, field, l1):
        return cls(field, (l1, 1, 0))

    @property
    def a(self):
        if self.chart != 3:
            raise FamilyError("a/b coordinates need the chart [a:b:1]")
        return self.coords[0]

    @property
    def b(self):
        if self.chart != 3:
            raise FamilyError("a/b coordinates need the chart [a:b:1]")
        return self.coords[1]

    @property
    def l1(self):
        if self.chart != 2:
            raise FamilyError("l1 needs the chart [l1:1:0]")
        return self.coords[0]

    def dual(self):
        """The point with reversed coordinates, renormalized into a chart."""
        first, second, third = self.coords
        if third == 1:  # [a:b:1] -> [1:b:a]
            if first:
                return CurvePoint.affine(self.field, first.inv(),
                                         second / first)
            return CurvePoint.at_infinity(self.field, second.inv())
        # [l1:1:0] -> [0:1:l1] -> [0:1/l1:1]
        return CurvePoint.affine(self.field, 0, first.inv())


class FormSet(_Frozen):
    """The named linear and quadratic forms feeding the matrix displays.

    Sigma data fills w1, w2 (linear), v1, v2 (quadratic) and the four linear
    factors v1p, v1pp, v2p, v2pp with v1 = v1p*v1pp, v2 = v2p*v2pp; lambda
    data fills p1..p3 (linear) and q1..q3 (quadratic).  Unused slots are None.
    """

    _SLOTS = ("w1", "w2", "v1", "v2", "v1p", "v1pp", "v2p", "v2pp",
              "p1", "p2", "p3", "q1", "q2", "q3")
    __slots__ = ("field",) + _SLOTS

    def __init__(self, field, **forms):
        object.__setattr__(self, "field", field)
        for name in self._SLOTS:
            object.__setattr__(self, name, forms.pop(name, None))
        if forms:
            raise FamilyError("unknown form names: %s" % sorted(forms))

    def __repr__(self):
        names = [n for n in self._SLOTS if getattr(self, n) is not None]
        return "FormSet(%s)" % ", ".join(names)


class GammaBlock(_Frozen):
    """The fifteen constants a1..a15 packed into the skew 6x6 block

        Gamma = [[Gamma1, -Gamma2^t], [Gamma2, Gamma3]]

    where Gamma1 = (0 a1 a2; -a1 0 a3; -a2 -a3 0), Gamma3 = (0 a4 a5; -a4 0
    a6; -a5 -a6 0) and Gamma2 holds a7..a15 row-major.
    """

    __slots__ = ("field", "values")

    def __init__(self, field, values):
        values = tuple(field(v) for v in values)
        if len(values) != 15:
            raise FamilyError("GammaBlock needs 15 values, got %d" % len(values))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, field):
        return cls(field, (0,) * 15)

    def a(self, index):
        """1-based access: a(1) .. a(15)."""
        if not 1 <= index <= 15:
            raise FamilyError("index out of range: %d" % index)
        return self.values[index - 1]

    def _skew3(self, p, q, r):
        return PolyMatrix(self.field, [[0, p, q], [-p, 0, r], [-q, -r, 0]])

    def gamma1(self):
        return self._skew3(self.a(1), self.a(2), self.a(3))

    def gamma3(self):
        return self._skew3(self.a(4), self.a(5), self.a(6))

    def gamma2(self):
        v = self.values
        return PolyMatrix(self.field, [v[6:9], v[9:12], v[12:15]])

    def matrix(self):
        g2 = self.gamma2()
        return block([[self.gamma1(), -g2.transpose()],
                      [g2, self.gamma3()]])

    def __eq__(self, other):
        if not isinstance(other, GammaBlock):
            return NotImplemented
        return self.field is other.field and self.values == other.values

    def __hash__(self):
        return hash((id(self.field), self.values))

    def __repr__(self):
        return "GammaBlock(%s)" % ", ".join(str(v) for v in self.values)


# -- form builders --------------------------------------------------------------

# _variables' memo: one tuple of x1..x4 per field (fields are interned)
_VARIABLES = {}


def _variables(field):
    """x1..x4 over ``field``, one shared tuple per field, so the displays
    share the variables and their negations."""
    x = _VARIABLES.get(field)
    if x is None:
        x = _VARIABLES[field] = tuple(Polynomial.variable(field, k)
                                      for k in range(1, 5))
    return x


def _root(field, name, value):
    """``value`` in ``field``, checked as the root the listings call
    ``name``: u a root of u^2 + u + 1, eps a primitive cube root of unity,
    and every other name (a, b, c, d) a cube root of -1."""
    value = field(value)
    if name == "u":
        if value * value + value + 1 != 0:
            raise FamilyError("u must satisfy u^2 + u + 1 = 0")
    elif name == "eps":
        if value ** 3 != 1 or value == 1:
            raise FamilyError("eps must be a primitive cube root of unity")
    elif value ** 3 != -1:
        raise FamilyError("%s must satisfy %s^3 = -1" % (name, name))
    return value


# building_blocks' memo: one checked FormSet per (tower, sigma, a, b, u)
_FORM_SETS = {}


def building_blocks(field, sigma, a, b, u):
    """The eight sigma-forms w1, w2, v1, v2 and the linear factors of v1, v2.

    Checks sigma and the roots a, b, u (``_root``) on every call, and the
    splitting identity f = w1*v1 + w2*v2 and the factorizations
    v_t = v_t' * v_t'' the first time a (tower, sigma, a, b, u) is asked
    for; from then on it returns that same immutable FormSet, so every
    family built on the same data shares its form objects (the 432
    four-generated and 162 five-generated listings draw on 54 form sets),
    which keeps the memory of long sweeps low.  The memo needs no limit:
    ``_root`` admits three cube roots of -1 for each of a and b and two
    primitive cube roots of unity for u, and there are three sigma, so a
    tower has at most 3 * 3 * 2 * 3 = 54 keys.
    """
    if not isinstance(sigma, SigmaPerm):
        raise FamilyError("sigma must be a SigmaPerm")
    a, b, u = _root(field, "a", a), _root(field, "b", b), _root(field, "u", u)
    key = (field, sigma, a, b, u)
    forms = _FORM_SETS.get(key)
    if forms is not None:
        return forms
    x = _variables(field)
    x1, xi, xj, xs = x[0], x[sigma.i - 1], x[sigma.j - 1], x[sigma.s - 1]
    w1, v1 = _split(x1, a, xs)
    w2, v2 = _split(xi, b, xj)
    v1p = x1 - (u * a) * xs
    v1pp = x1 + ((1 + u) * a) * xs
    v2p = xi - (u * b) * xj
    v2pp = xi + ((1 + u) * b) * xj
    if w1 * v1 + w2 * v2 != fermat_cubic(field):
        raise FamilyError("splitting identity w1*v1 + w2*v2 = f failed")
    if v1 != v1p * v1pp or v2 != v2p * v2pp:
        raise FamilyError("factor identity v = v'*v'' failed")
    forms = _FORM_SETS[key] = FormSet(field, w1=w1, w2=w2, v1=v1, v2=v2,
                                      v1p=v1p, v1pp=v1pp, v2p=v2p, v2pp=v2pp)
    return forms


def _split(var, coeff, unit):
    """The pair (var - coeff*unit, var^2 + coeff*var*unit + coeff^2*unit^2),
    whose product is var^3 - coeff^3*unit^3."""
    return (var - coeff * unit,
            var * var + coeff * var * unit + (coeff * coeff) * unit * unit)


def point_forms(lam):
    """The linear/quadratic pairs p_i, q_i of a surface point, chart by chart;
    always f = p1*q1 + p2*q2 + p3*q3."""
    field = lam.field
    x1, x2, x3, x4 = _variables(field)
    l = lam.coords
    if lam.chart == 4:
        p1, q1 = _split(x1, l[0], x4)
        p2, q2 = _split(x2, l[1], x4)
        p3, q3 = _split(x3, l[2], x4)
    elif lam.chart == 3:
        p1, q1 = _split(x1, l[0], x3)
        p2, q2 = _split(x2, l[1], x3)
        p3, q3 = x4, x4 * x4
    else:
        p1, q1 = _split(x1, l[0], x2)
        p2, q2 = x3, x3 * x3
        p3, q3 = x4, x4 * x4
    if p1 * q1 + p2 * q2 + p3 * q3 != fermat_cubic(field):
        raise FamilyError("splitting identity sum(p_i*q_i) = f failed")
    return FormSet(field, p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, q3=q3)


# -- slot rows -------------------------------------------------------------------

_SYMBOLS = ("W1", "W2", "V1'", "V1''", "V2'", "V2''", "X")
_PROVEN = set()  # the _SLOT_ROWS rows proven in this process


def _slot_pair(row, fs, free):
    """A row (display, slot names, generator order) filled from ``fs``: a
    key of ``free`` takes its value, "1" the constant 1, any other name its
    form; the order permutes phi's columns and psi's rows."""
    display, slots, order = row
    phi, psi = display(fs.field, *[
        free[n] if n in free else 1 if n == "1" else getattr(fs, n)
        for n in slots.split()])
    if order is not None:
        phi = phi.submatrix(range(5), order)
        psi = psi.submatrix(order, range(5))
    return phi, psi


def _slot_instance(name, sigma, fs, beta=None):
    """The pair of slot row ``name`` filled from the form set ``fs`` of
    sigma, with x_j, x_s or ``beta`` in the free slot, and no product.

    The first call proves the row over Q in _SYMBOLS (V_t = V_t'*V_t'', X
    free): phi*psi = (W1*V1 + W2*V2)*Id, or a FamilyError prints the
    residual entries in the symbols.  ``fs`` holds f = w1*v1 + w2*v2 and
    v_t = v_t'*v_t'' (``building_blocks``), so the ring map W1, ..., V2'',
    X -> w1, ..., v2'', free form sends the proof to phi*psi = f*Id.
    """
    row = _SLOT_ROWS[name]
    if row not in _PROVEN:
        ring, n = rationals(), len(_SYMBOLS)
        w1, w2, v1p, v1pp, v2p, v2pp, x = (Polynomial.variable(ring, k, n)
                                           for k in range(1, n + 1))
        gen = FormSet(ring, w1=w1, w2=w2, v1=v1p * v1pp, v2=v2p * v2pp,
                      v1p=v1p, v1pp=v1pp, v2p=v2p, v2pp=v2pp)
        phi, psi = _slot_pair(row, gen, dict.fromkeys(("xj", "xs", "beta"), x))
        residuals = slot_residuals(phi, psi, w1 * gen.v1 + w2 * gen.v2,
                                   _SYMBOLS)
        if residuals:
            raise FamilyError("slot row %s fails phi*psi = (W1*V1 + W2*V2)*Id:"
                              " %s" % (name, "; ".join(residuals)))
        _PROVEN.add(row)
    x = _variables(fs.field)
    phi, psi = _slot_pair(row, fs, {"xj": x[sigma.j - 1], "xs": x[sigma.s - 1],
                                    "beta": beta})
    return MatrixFactorization(phi, psi, fermat_cubic(fs.field))


def _sigma_pair(fid, row, beta=None):
    """Slot row ``row`` filled from the form set of the id's (sigma, a, b, u)."""
    p = fid.params
    fs = building_blocks(fid.field, p["sigma"], p["a"], p["b"], p["u"])
    return _slot_instance(row, p["sigma"], fs, beta)


def _by_invariant(phi, psi, value, f, name, what):
    """(phi, psi) certified by value = f: psi is the adjugate (Pfaffian
    adjoint) of phi, so phi*psi = value*Id with value det(phi) (Pf(phi))."""
    if value != f:
        raise FamilyError("%s: %s" % (name, what))
    return MatrixFactorization(phi, psi, f)


# -- three-generated families ----------------------------------------------------

def _rank1_3gen(fid):
    """One of the four 3x3 families alpha3, beta3, eta3, theta3, paired with
    its adjugate and certified by det(phi) = f.

    alpha3/beta3 take (b,c,d,eps) and derive a from b*c*d = eps*a; eta3
    takes (a,b,c) pairwise-distinct cube roots of -1 plus eps; theta3 takes
    just (a,b,c).
    """
    field, name, p = fid.field, fid.name, fid.params
    x1, x2, x3, x4 = _variables(field)
    if name in ("alpha3", "beta3"):
        # eps first: a = b*c*d/eps needs eps != 0, and is then a cube
        # root of -1 because b, c and d are
        eps = _root(field, "eps", p["eps"])
        b, c, d = (_root(field, n, p[n]) for n in "bcd")
        a = b * c * d / eps
        phi = PolyMatrix(field, [
            [0,
             x1 - a * x4,
             x2 - b * x3],
            [x1 - c * x2,
             -(b * b) * x3 - (a * b * c * c * eps * eps) * x4,
             (b * b * c * c) * x3 - (a * b * c * eps * eps) * x4],
            [x3 - d * x4,
             (c * c) * x2 + (b * c * c) * x3 + (a * c) * x4,
             -x1 - c * x2 - a * x4],
        ])
        if name == "beta3":
            phi = phi.transpose()
    else:
        a, b, c = (_root(field, n, p[n]) for n in "abc")
        eps = _root(field, "eps", p["eps"]) if name == "eta3" else None
        if a == b or a == c or b == c:
            raise FamilyError("(a, b, c) must be pairwise distinct")
        # one display on l_k = x1 + e_k*y and m_k = z - r_k*x4, with slots
        # (y | z) = (x2 | x3) for eta3 and (x3 | x2) for theta3
        if name == "eta3":
            y, z, e2, e3 = x2, x3, eps, eps * eps
        else:
            y, z, e2, e3 = x3, x2, -(a * a * b), -(a * b * b)
        l1, l2, l3 = x1 + y, x1 + e2 * y, x1 + e3 * y
        m1, m2, m3 = z - a * x4, z - c * x4, z - b * x4
        phi = PolyMatrix(field, [
            [0, l1, m1],
            [l2, -m2, 0],
            [m3, 0, -l3],
        ])
    return _by_invariant(phi, adjugate(phi), determinant(phi),
                         fermat_cubic(field), name, "det(phi) != f")


def _curve_alpha_matrix(lam):
    field = lam.field
    x1, x2, x3, _ = _variables(field)
    if lam.chart == 3:
        a, b, e = lam.a, lam.b, lam.e
        return PolyMatrix(field, [
            [0, x1 - a * x3, x2 - b * x3],
            [x1 + x3, -x2 - b * x3, -e * x3],
            [x2, e * x3, (field(1) - a) * x3 - x1],
        ])
    l1 = lam.l1
    return PolyMatrix(field, [
        [0, x1 - l1 * x2, x3],
        [x1 + x3, -l1 * x1, l1 * x1 + (l1 * l1) * x2],
        [x2, x3 - x1, -x1],
    ])


def build_curve_alpha(lam):
    """The 3x3 alpha matrix of a curve point (either chart), paired with its
    adjugate and certified by det(phi) = f3 = x1^3 + x2^3 + x3^3."""
    phi = _curve_alpha_matrix(lam)
    return _by_invariant(phi, adjugate(phi), determinant(phi),
                         fermat_cubic3(lam.field), "curve_alpha",
                         "det(phi) != f3")


def _curve_point(fid):
    lam = fid.params["lam"]
    if not isinstance(lam, CurvePoint):
        raise FamilyError("%s needs a 3-coordinate point" % fid.name)
    return lam


# -- four-generated families -----------------------------------------------------

def _sigma_4x4(field, w1, w2, v1, v2, v2p, v2pp, x):
    """The 4x4 sigma display (phi, psi) on a splitting f = w1*v1 + w2*v2 with
    v2 = v2p*v2pp; the slot x is free, since it cancels from phi*psi."""
    phi = PolyMatrix(field, [
        [0, w1, -v2pp, 0],
        [-w1, 0, -x, w2],
        [v2, x * v2p, 0, v1],
        [0, -w2 * v2p, -v1, 0],
    ])
    psi = PolyMatrix(field, [
        [0, -v1, w2, x],
        [v1, 0, 0, -v2pp],
        [-w2 * v2p, 0, 0, -w1],
        [-x * v2p, v2, w1, 0],
    ])
    return phi, psi


def _phi_lambda(fid):
    """phi_lambda of a surface point and its Pfaffian adjoint, certified by
    Pf(phi) = f."""
    lam = fid.params["lam"]
    if not isinstance(lam, SurfacePoint):
        raise FamilyError("%s needs a 4-coordinate point" % fid.name)
    fs = point_forms(lam)
    p1, p2, p3 = fs.p1, fs.p2, fs.p3
    q1, q2, q3 = fs.q1, fs.q2, fs.q3
    phi = PolyMatrix(lam.field, [
        [0, p3, -p2, -q1],
        [-p3, 0, -p1, q2],
        [p2, p1, 0, q3],
        [q1, -q2, -q3, 0],
    ])
    return _by_invariant(phi, pfaffian_adjoint(phi), pfaffian(phi),
                         fermat_cubic(lam.field), fid.name, "Pf(phi) != f")


def _phi_sigma(fid):
    """The slot row phi_sigma (v2 unsplit: v2' = 1, v2'' = v2) with x_j*x_s,
    the normal form of the catalog, in its free slot beta."""
    sigma = fid.params["sigma"]
    x = _variables(fid.field)
    return _sigma_pair(fid, "phi_sigma", x[sigma.j - 1] * x[sigma.s - 1])

def _phi_t_sigma(fid):
    """phi_t_sigma, t = 1..4: the 4x4 sigma display filled by its slot row."""
    t = fid.params["t"]
    if t not in (1, 2, 3, 4):
        raise FamilyError("t must be 1..4, got %r" % (t,))
    return _sigma_pair(fid, "phi_%d_sigma" % t)


# -- five-generated families -----------------------------------------------------

def _rho_5x5(field, w1, w2, v1, v2, v1p, v1pp, v2p, v2pp, x):
    """The normalized 5x5 rho display (phi, psi) on a splitting
    f = w1*v1 + w2*v2 with v1 = v1p*v1pp and v2 = v2p*v2pp; the slot x is
    free, since it cancels from phi*psi."""
    phi = PolyMatrix(field, [
        [0, w1, -v2p, -x, 0],
        [v1p, w2, 0, 0, -x * v1pp],
        [-v2pp, 0, v1pp, 0, 0],
        [0, 0, 0, v1p, v2],
        [0, 0, 0, -w2, w1 * v1pp],
    ])
    psi = PolyMatrix(field, [
        [-w2 * v1pp, w1 * v1pp, -w2 * v2p, 0, x * v1pp],
        [v1, v2, v1p * v2p, x * v1pp, 0],
        [-w2 * v2pp, w1 * v2pp, w1 * v1p, 0, x * v2pp],
        [0, 0, 0, w1 * v1pp, -v2],
        [0, 0, 0, w2, v1p],
    ])
    return phi, psi


def _mu_5x5(field, w1, w2, v1, v2, v1p, v1pp, v2p, v2pp, x):
    """The normalized 5x5 mu display (phi, psi), with the slots of
    ``_rho_5x5``."""
    phi = PolyMatrix(field, [
        [0, w1, v2pp, 0, 0],
        [-v1p, w2, 0, 0, x],
        [v2p, 0, -v1pp, x, 0],
        [0, 0, 0, -v1p, -v2p],
        [0, 0, 0, w2 * v2pp, -v1pp * w1],
    ])
    psi = PolyMatrix(field, [
        [v1pp * w2, -v1pp * w1, v2pp * w2, 0, -x],
        [v1, v2, v2pp * v1p, x * v2pp, 0],
        [v2p * w2, -v2p * w1, -v1p * w1, -x * w1, 0],
        [0, 0, 0, -v1pp * w1, v2p],
        [0, 0, 0, -v2pp * w2, -v1p],
    ])
    return phi, psi


# per row: the display, the forms in its slots, its generator order or None.
# phi_sigma leaves v2 unsplit; t = 2 swaps the summands of f = w1*v1 +
# w2*v2, t = 3, 4 are t = 1, 2 with w1, v1 and v2', v2'' exchanged; mubar is
# mu with the summands swapped; rho1, mu1 are rho, mu with x := v2'', reordered
_SLOT_ROWS = {
    "phi_sigma": (_sigma_4x4, "w1 w2 v1 v2 1 v2 beta", None),
    "phi_1_sigma": (_sigma_4x4, "w1 w2 v1 v2 v2p v2pp xs", None),
    "phi_2_sigma": (_sigma_4x4, "w2 w1 v2 v1 v1pp v1p xj", None),
    "phi_3_sigma": (_sigma_4x4, "v1 w2 w1 v2 v2pp v2p xs", None),
    "phi_4_sigma": (_sigma_4x4, "v2 w1 w2 v1 v1p v1pp xj", None),
    "rho": (_rho_5x5, "w1 w2 v1 v2 v1p v1pp v2p v2pp xj", None),
    "rho1": (_rho_5x5, "w1 w2 v1 v2 v1p v1pp v2p v2pp v2pp", (0, 3, 2, 1, 4)),
    "mu": (_mu_5x5, "w1 w2 v1 v2 v1p v1pp v2p v2pp xj", None),
    "mu1": (_mu_5x5, "w1 w2 v1 v2 v1p v1pp v2p v2pp v2pp", (2, 4, 0, 3, 1)),
    "mubar": (_mu_5x5, "w2 w1 v2 v1 v2pp v2p v1pp v1p xs", None),
}


def _five_gen(fid):
    """The slot row of the base name (rho, mu or mubar), or with
    ``normalized=0`` its un-normalized row rho1 or mu1, so that omega with
    ``normalized=0`` selects rho1.  Both omega variants carry +w1*v2'' in
    their [3,2] entry, a sign the row proof forces (see ERRATA.md)."""
    row = _PARTNERS.get(fid.name, fid.name)
    if not fid.params.get("normalized", True):
        row += "1"
        if row not in _SLOT_ROWS:
            raise FamilyError("mubar has no un-normalized display")
    return _sigma_pair(fid, row)


# -- the six-generated pencil ----------------------------------------------------

def build_six_gen(lam, gamma):
    """The skew 6x6 pencil Lambda = x4*Gamma + [[0, -alpha^t], [alpha, 0]]
    over a curve point in chart [a:b:1], uncertified: the six_gen id
    certifies it by Pf(Lambda) = f."""
    if lam.chart != 3:
        raise FamilyError("the 6x6 pencil needs the chart [a:b:1]")
    field = lam.field
    if gamma.field is not field:
        raise TowerError("gamma and point live over different fields")
    alpha = _curve_alpha_matrix(lam)
    zero3 = PolyMatrix.zeros(field, 3)
    alpha_block = block([[zero3, -alpha.transpose()], [alpha, zero3]])
    x4 = Polynomial.variable(field, 4)
    return gamma.matrix() * x4 + alpha_block


def _six_gen(fid):
    """The pencil Lambda and its Pfaffian adjoint, certified by
    Pf(Lambda) = f."""
    pencil = build_six_gen(_curve_point(fid), fid.params["gamma"])
    return _by_invariant(pencil, pfaffian_adjoint(pencil), pfaffian(pencil),
                         fermat_cubic(fid.field), fid.name, "Pf(Lambda) != f")


def transport_matrices(lam):
    """Constant matrices (U, V) with U * alpha_lam^t = alpha_dual * V, where
    the dual point reverses the coordinates of lam.

    Two displays cover the chart [a:b:1]: one for a != 0 (V = U^t) and one
    for a = 0, whose dual lands in the chart [l1:1:0].  The identity is
    re-checked here before returning.
    """
    if lam.chart != 3:
        raise FamilyError("transport needs the chart [a:b:1]")
    field = lam.field
    a, b = lam.a, lam.b
    if a:
        U = PolyMatrix(field, [
            [b * b, b * (a + 1), -(a + 1) ** 2],
            [-(a + 1) ** 2, b * b, -b * (a + 1)],
            [b * (a + 1), (a + 1) ** 2, b * b],
        ])
        V = U.transpose()
    else:
        U = PolyMatrix(field, [
            [-b * b, -b, 1],
            [-2 * b, 1, b * b],
            [2 * b * b, 2 * b, 1],
        ])
        V = PolyMatrix(field, [
            [1, -2 * b, 2 * b * b],
            [-b, -b * b, -1],
            [-b, -b * b, 2],
        ])
    alpha = _curve_alpha_matrix(lam)
    alpha_dual = _curve_alpha_matrix(lam.dual())
    if U * alpha.transpose() != alpha_dual * V:
        raise FamilyError("transport identity U*alpha^t = alpha'*V failed")
    if not determinant(U).constant_term() or not determinant(V).constant_term():
        raise FamilyError("transport matrices must be invertible")
    return U, V


# -- the five-general-points example ---------------------------------------------

def five_points_example():
    """The worked 6x6 skew presentation attached to five general surface
    points, over Q(w): returns (A, quadrics, points).

    A is skew with linear entries, the five quadrics vanish at all five
    points, and the points are returned normalized into the standard charts.
    The first row and column carry a factor w^2/6 relative to the source
    display, which puts the Pfaffian at exactly f rather than a unit
    multiple of it (see ERRATA.md).
    """
    field = omega_field()
    u = field.gen("w")
    x1, x2, x3, x4 = _variables(field)

    def lin(c1, c2, c3, c4):
        return c1 * x1 + c2 * x2 + c3 * x3 + c4 * x4

    zero = field(0)
    f7 = field(1) / 7
    upper = {
        (0, 1): lin(zero, zero, -3 * u - 2, 2 * u - 1),
        (0, 2): lin(-u, -2 * u + 1, u + 1, u),
        (0, 3): lin(u - 2, field(-1), -3 * u - 4, 2 * u - 1),
        (0, 4): lin(zero, zero, u + 1, -u),
        (0, 5): lin(-u, u + 1, f7 * u + 3 * f7, -3 * f7 * u - 2 * f7),
        (1, 2): lin(u - 2, field(-1), field(1), -u + 2),
        (1, 3): lin(3 * u + 2, 2 * u + 3, 4 * u, field(1)),
        (1, 4): lin(zero, zero, -3 * u - 1, u - 2),
        (1, 5): lin(-u - 2, -u + 1, -u - 1, u),
        (2, 3): lin(zero, zero, field(-3), zero),
        (2, 4): lin(zero, zero, u + 1, zero),
        (2, 5): lin(zero, zero, -6 * f7 * u - 4 * f7, field(1)),
        (3, 4): lin(zero, zero, -3 * u - 1, zero),
        (3, 5): lin(zero, zero, -u, u),
        (4, 5): lin(field(-1), -u, zero, zero),
    }
    # As displayed, Pf = 6*w*f; scaling row and column 1 by w^2/6 is the
    # conjugation diag(w^2/6, 1, ..., 1) * A * diag(...)^t and makes
    # Pf(A) = f and det(A) = f^2 hold on the nose.
    unit = u * u / field(6)
    for key in list(upper):
        if 0 in key:
            upper[key] = unit * upper[key]
    zero_poly = Polynomial.zero(field)
    rows = [[zero_poly] * 6 for _ in range(6)]
    for (i, j), entry in upper.items():
        rows[i][j] = entry
        rows[j][i] = -entry
    A = PolyMatrix(field, rows)
    quadrics = [
        x2 * x4 + u * x3 * x4,
        -u * x2 * x3 + u * x3 * x4,
        x1 * x4 + x4 * x4 - (1 - u) * x3 * x4,
        u * (x1 + x3) * x3 + 2 * x3 * x4,
        -x3 * x4 - x1 * x1 + u * x1 * x2 - (u * u) * x2 * x2
        + x3 * x3 + x4 * x4,
    ]
    w2 = u * u
    points = [
        SurfacePoint(field, (-1, 0, 0, 1)),
        SurfacePoint(field, (-1, 0, 1, 0)),
        SurfacePoint(field, (-1, 1, 0, 0)),
        SurfacePoint(field, (-w2, 1, 0, 0)),
        SurfacePoint(field, (-w2, 1, -w2, 1)),
    ]
    return A, quadrics, points


# -- canonical addressing --------------------------------------------------------

_SIGMA_KEYS = ("sigma", "a", "b", "u")
_FIVE_GEN = (_SIGMA_KEYS + ("normalized",), _five_gen)

# name -> (parameter keys in canonical order, builder of the certified pair);
# builders call build_curve_alpha/build_six_gen by name, which tracers rebind
_FAMILIES = {
    "alpha3": (("b", "c", "d", "eps"), _rank1_3gen),
    "beta3": (("b", "c", "d", "eps"), _rank1_3gen),
    "eta3": (("a", "b", "c", "eps"), _rank1_3gen),
    "theta3": (("a", "b", "c"), _rank1_3gen),
    "curve_alpha": (("lam",),
                    lambda fid: build_curve_alpha(_curve_point(fid))),
    "phi_lambda": (("lam",), _phi_lambda),
    "phi_sigma": (_SIGMA_KEYS, _phi_sigma),
    "phi_t_sigma": (("t",) + _SIGMA_KEYS, _phi_t_sigma),
    "rho": _FIVE_GEN,
    "mu": _FIVE_GEN,
    "mubar": _FIVE_GEN,
    "six_gen": (("lam", "gamma"), _six_gen),
}

# partner name -> the name whose certified pair it is, swapped
_PARTNERS = {"psi_lambda": "phi_lambda", "psi_sigma": "phi_sigma",
             "psi_t_sigma": "phi_t_sigma", "omega": "rho", "nu": "mu",
             "nubar": "mubar"}

_OPTIONAL_KEYS = {"normalized"}


def _format_scalar(value):
    return str(value).replace(" ", "")


class FamilyId(_Frozen):
    """Canonical string address of one catalog member, e.g.

        phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w

    The value grammar reuses field literals; multi-component values (points,
    gamma constants) join their components with ``:``.  Formatting is
    canonical, so equal ids have equal strings.
    """

    __slots__ = ("field", "name", "params")

    def __init__(self, field, name, params):
        base = _PARTNERS.get(name, name)
        if base not in _FAMILIES:
            raise FamilyError("unknown family name %r" % (name,))
        keys = _FAMILIES[base][0]
        required = [k for k in keys if k not in _OPTIONAL_KEYS]
        missing = [k for k in required if k not in params]
        if missing:
            raise FamilyError("missing parameters for %s: %s" % (name, missing))
        extra = [k for k in params if k not in keys]
        if extra:
            raise FamilyError("unknown parameters for %s: %s" % (name, sorted(extra)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", dict(params))

    @classmethod
    def parse(cls, field, text):
        name, _, rest = text.partition(":")
        name = name.strip()
        params = {}
        if rest.strip():
            for pair in rest.split(","):
                key, eq, raw = pair.partition("=")
                if not eq:
                    raise FamilyError("expected key=value, got %r" % (pair,))
                key = key.strip()
                raw = raw.strip()
                if key in params:
                    raise FamilyError("duplicate parameter %r" % (key,))
                params[key] = cls._parse_value(field, name, key, raw)
        return cls(field, name, params)

    @staticmethod
    def _parse_value(field, name, key, raw):
        if key == "t":
            if raw not in ("1", "2", "3", "4"):
                raise FamilyError("t must be 1..4, got %r" % (raw,))
            return int(raw)
        if key == "sigma":
            return SigmaPerm.from_string(raw)
        if key == "normalized":
            if raw not in ("0", "1"):
                raise FamilyError("normalized must be 0 or 1, got %r" % (raw,))
            return raw == "1"
        if key == "lam":
            coords = [parse_scalar(field, part) for part in raw.split(":")]
            if len(coords) == 4:
                return SurfacePoint(field, coords)
            if len(coords) == 3:
                return CurvePoint(field, coords)
            raise FamilyError("lam needs 3 or 4 ':'-separated coordinates")
        if key == "gamma":
            values = [parse_scalar(field, part) for part in raw.split(":")]
            return GammaBlock(field, values)
        return parse_scalar(field, raw)

    @staticmethod
    def _format_value(key, value):
        if key == "t":
            return str(value)
        if key == "sigma":
            return "%d%d%d" % (value.i, value.j, value.s)
        if key == "normalized":
            return "1" if value else "0"
        if key == "lam":
            return ":".join(_format_scalar(c) for c in value.coords)
        if key == "gamma":
            return ":".join(_format_scalar(v) for v in value.values)
        return _format_scalar(value)

    def __str__(self):
        pieces = []
        for key in _FAMILIES[_PARTNERS.get(self.name, self.name)][0]:
            if key not in self.params:
                continue
            if key == "normalized" and self.params[key]:
                continue  # the default; omitted for canonical form
            pieces.append("%s=%s" % (key, self._format_value(key, self.params[key])))
        return "%s:%s" % (self.name, ",".join(pieces))

    __repr__ = __str__

    def __eq__(self, other):
        if not isinstance(other, FamilyId):
            return NotImplemented
        return self.field is other.field and str(self) == str(other)

    def __hash__(self):
        return hash((id(self.field), str(self)))

    def build(self):
        """The certified MatrixFactorization the id addresses: one lookup in
        ``_FAMILIES``, and a partner name (``_PARTNERS``) is its base
        name's pair, swapped."""
        base = _PARTNERS.get(self.name, self.name)
        mf = _FAMILIES[base][1](self)
        return mf if base == self.name else mf.swapped()
