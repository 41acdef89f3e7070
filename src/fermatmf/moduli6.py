"""The moduli layer for the skew 6x6 pencils Lambda = x4*Gamma + alpha block.

Expanding the Pfaffian of the pencil over a curve point [a:b:1] and matching
it against x1^3 + x2^3 + x3^3 + x4^3 yields ten equations in the fifteen
Gamma parameters.  Six are linear in the Gamma2 entries and admit printed
closed-form solutions; the other four are the residuals, affine in the
Gamma3 entries.  This module evaluates the equations exactly, each caller
only the system it reads: the six linear ones, or the four residuals as one
affine system in Gamma3, which the sampler solves from one evaluation.  It
solves the linear part in both branches, samples certified points
deterministically, applies the three group actions, carries the pencil
between the two curve charts, and splits the pencil into 3x3 blocks when
both skew corners vanish.

Certification is the exact identity Pf(Lambda) = f on the skew pencil; since
Pf(M)^2 = det(M) for every skew M, it implies det(Lambda) = f^2.  The
Pfaffian sign convention is +f, and a sign-flip conjugation is provided for
the other sheet.
"""

from __future__ import annotations

import random

from .families import (
    CurvePoint,
    FamilyError,
    GammaBlock,
    build_curve_alpha,
    build_six_gen,
    transport_matrices,
)
from .field import FermatmfError, _Frozen
from .matrix import (
    PolyMatrix,
    adjugate,
    block,
    determinant,
    field_rref,
    pfaffian,
)
from .poly import fermat_cubic
from .equiv import enumerate_classes, scalar_equivalence


class ModuliError(FermatmfError):
    """Raised when a pencil operation gets arguments outside its chart."""


def _affine_field(lam):
    if not isinstance(lam, CurvePoint):
        raise ModuliError("expected a curve point")
    if lam.chart != 3:
        raise ModuliError("the equation system lives in the chart [a:b:1]")
    return lam.field


# -- the ten coefficient equations -----------------------------------------------
#
# Each equation is written once, in the system its callers read: the six
# Gamma2-linear ones (i1-i5, i8), and the four residuals (i6, i7, i9, i10)
# as one affine system in Gamma3, which the sample solve reads.

def _parameters(lam, gamma):
    """(a, b, e, gamma.values), once lam is in the chart [a:b:1] and gamma
    lives over its field."""
    field = _affine_field(lam)
    if gamma.field is not field:
        raise ModuliError("gamma and point live over different fields")
    return lam.a, lam.b, lam.e, gamma.values


def _linear_values(lam, gamma):
    """The six equations linear in the Gamma2 entries: i1-i5 and i8."""
    a, b, e, (_, _, _, _, _, _, a7, a8, a9, a10, a11, a12, a13, a14,
              a15) = _parameters(lam, gamma)
    i1 = a9 - a11 + a13
    i2 = a8 + a10 - a15
    i3 = a7 + a12 + a14
    i4 = (a * a10 - e * a11 + b * a12 + 2 * e * a13 + 2 * b * a14
          - 2 * a * a15 + a10 + a15)
    i5 = (2 * e * a10 + 2 * b * a11 - 2 * a * a12 - b * a13 - a * a14
          - e * a15 + a12 + 2 * a14)
    i8 = (2 * e * e * a12 + 2 * a * b * a12 - 3 * b * b * a13
          + 2 * e * e * a14 - a * b * a14 - 3 * e * b * a15 - 6 * e * a11
          - b * a12 + 12 * e * a13 + 2 * b * a14 - 6 * a * a15)
    return (i1, i2, i3, i4, i5, i8)


def _gamma3_system(lam, gamma):
    """The residuals i6, i7, i9 and i10 as (row, constant) pairs, affine in
    Gamma3.

    Each row holds the coefficients of (a4, a5, a6), each constant the
    Gamma3-free terms; gamma's own Gamma3 is not read.  The pairs of i6, i7
    and i9 read Gamma1 and Gamma2 alone, that of i10 the curve point too.
    """
    a, b, e, (a1, a2, a3, _, _, _, _, _, _, a10, a11, a12, a13, a14,
              a15) = _parameters(lam, gamma)
    i6 = ((a3, -a2, a1),
          a11 * a11 + a10 * a12 - a11 * a13 + a13 * a13 - a10 * a14
          - 2 * a12 * a15 - a14 * a15)
    i7 = ((a1, a3, a2),
          -a10 * a10 + a11 * a12 + a12 * a13 + 2 * a11 * a14 - a13 * a14
          + a10 * a15 - a15 * a15)
    i9 = ((a2 * a14,
           a3 * a10 - a2 * a11 + a1 * a12 - a2 * a13 + a3 * a15,
           -a2 * a10 - a1 * a11 + a3 * a12 + 2 * a1 * a13 + a3 * a14
           + 2 * a2 * a15),
          a13 ** 3 + a10 * a11 * a14 + a12 * a12 * a14 - 2 * a10 * a13 * a14
          + a12 * a14 * a14 + a11 * a14 * a15 - 2 * a13 * a14 * a15
          - a15 ** 3 - 1)
    i10 = ((2 * e * a2,
            -2 * e * a1 + 2 * b * a2 - 2 * a * a3 + 4 * a3,
            2 * b * a1 - 4 * a * a2 + 2 * a2),
           -2 * b * a11 * a11 + 2 * a * a11 * a12 + 2 * e * a12 * a12
           + 5 * b * a11 * a13 - 4 * a * a12 * a13 - 2 * b * a13 * a13
           - 2 * b * a10 * a14 - a * a11 * a14 + 2 * a * a13 * a14
           - 2 * e * a14 * a14 + 3 * e * a11 * a15 - 6 * e * a13 * a15
           - 2 * b * a14 * a15 + 6 * a * a15 * a15 - a11 * a12
           + 2 * a12 * a13 + 2 * a11 * a14 - 4 * a13 * a14 - 6 * a15 * a15)
    return (i6, i7, i9, i10)


def _affine_value(row, constant, gamma3):
    """row . gamma3 + constant: one residual of _gamma3_system at gamma3."""
    r4, r5, r6 = row
    a4, a5, a6 = gamma3
    return r4 * a4 + r5 * a5 + r6 * a6 + constant


def residual_equations(lam, gamma):
    """The four residual equation values (i6, i7, i9, i10) at (lam, gamma):
    _gamma3_system at gamma's own Gamma3.

    Together with the six linear equations these vanish exactly when
    Pf(Lambda) = f.  At gamma = 0 the last-but-one value is -1: the x4^3
    slot of the expansion never vanishes without Gamma2.
    """
    gamma3 = gamma.values[3:6]
    return tuple(_affine_value(row, constant, gamma3)
                 for row, constant in _gamma3_system(lam, gamma))


def equation_values(lam, gamma):
    """Values of the ten equations i1..i10 at a point.

    In order: three Gamma2 traces, two more linear ones mixing in the curve
    constants, the two quadratic residuals, the sixth linear equation, and
    the two higher residuals.  A pencil satisfies Pf(Lambda) = f exactly
    when all ten vanish.  The values are those of _linear_values and
    residual_equations, interleaved in that order.
    """
    i1, i2, i3, i4, i5, i8 = _linear_values(lam, gamma)
    i6, i7, i9, i10 = residual_equations(lam, gamma)
    return (i1, i2, i3, i4, i5, i6, i7, i8, i9, i10)


# -- the linear system in the Gamma2 entries -------------------------------------

def gamma2_solve(lam, free):
    """Solve the six Gamma2-linear equations from three free values.

    For b = 0 the free values are (a11, a12, a13) and the printed solution
    sets a7 = -a12*(a^2+1), a8 = a10 = a15 = 0, a9 = a11 - a13 and
    a14 = a^2*a12.  For b != 0 they are (a7, a11, a15) with the six
    remaining entries given by the printed fractions (a+1 and b never
    vanish away from the excluded point).  The result is a GammaBlock with
    both skew corners zero; it is re-checked against the linear system
    before being returned.
    """
    field = _affine_field(lam)
    free = tuple(field(v) for v in free)
    if len(free) != 3:
        raise ModuliError("the linear system has three free values")
    a, b = lam.a, lam.b
    if not b:
        a11, a12, a13 = free
        a7 = -a12 * (a * a + 1)
        a8 = a10 = a15 = field(0)
        a9 = a11 - a13
        a14 = a * a * a12
    else:
        a7, a11, a15 = free
        q = b / (a + 1)
        s = (a - 1) / (b * (a + 1))
        a8 = -q * a7 + a15
        a9 = -s * a7 - (a * a / (b * b)) * a15
        a10 = q * a7
        a12 = (-((a * a + 3) / ((a + 1) ** 2)) * a7 + q * a11 - s * a15)
        a13 = s * a7 + a11 + (a * a / (b * b)) * a15
        a14 = ((2 * (field(1) - a) / ((a + 1) ** 2)) * a7 - q * a11
               + s * a15)
    gamma = GammaBlock(field, (0, 0, 0, 0, 0, 0,
                               a7, a8, a9, a10, a11, a12, a13, a14, a15))
    if any(_linear_values(lam, gamma)):
        raise ModuliError("printed solution fails its own linear system")
    return gamma


def linear_system_nullity(lam):
    """(rank, nullity) of the six linear equations in the nine Gamma2 entries.

    The matrix is read off by evaluating the equations on the nine unit
    blocks, so it always agrees with equation_values.
    """
    field = _affine_field(lam)
    columns = []
    for j in range(7, 16):
        values = [0] * 15
        values[j - 1] = 1
        columns.append(_linear_values(lam, GammaBlock(field, values)))
    rows = [[columns[j][i] for j in range(9)] for i in range(6)]
    _, pivots = field_rref(rows, field)
    rank = len(pivots)
    return rank, 9 - rank


# -- certified points ------------------------------------------------------------

class ModuliPoint(_Frozen):
    """A curve point together with a Gamma block, certified on construction.

    ``certified`` is computed, never supplied: it holds exactly when
    Pf(Lambda) = f for the assembled pencil, and then det(Lambda) = f^2
    follows from Pf^2 = det on skew matrices.
    """

    __slots__ = ("lam", "gamma", "certified")

    def __init__(self, lam, gamma):
        _parameters(lam, gamma)
        certified = pfaffian(build_six_gen(lam, gamma)) == fermat_cubic(
            lam.field)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "certified", certified)

    @property
    def field(self):
        return self.lam.field

    def matrix(self):
        return build_six_gen(self.lam, self.gamma)

    def __eq__(self, other):
        if not isinstance(other, ModuliPoint):
            return NotImplemented
        return self.lam == other.lam and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.lam, self.gamma))

    def __repr__(self):
        flag = "certified" if self.certified else "uncertified"
        return "ModuliPoint(%r, %s)" % (self.lam, flag)


# -- sampling --------------------------------------------------------------------

_DRAW_BOUND = 4
_CANDIDATE_CACHE = {}
# The scans are memoised per point; the memo is emptied when it reaches this
# many entries, so a run over many curve points keeps a bounded amount of it.
_CANDIDATE_CACHE_LIMIT = 64


def _structured_gamma2(lam):
    """Gamma2 blocks coming from linear determinant-f extensions of alpha.

    Scans the three-generator catalog for matrices whose x4 = 0 restriction
    is constant-equivalent to alpha over the point; each hit F yields
    D = U*F*V^-1 with D = alpha + x4*Gamma2 and det D = f, so Gamma2 joined
    with any skew corner Gamma1 certifies.  The scan is cached per point,
    in a memo emptied at ``_CANDIDATE_CACHE_LIMIT`` entries.
    """
    key = (id(lam.field), lam.coords)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is not None:
        return cached
    field = lam.field
    alpha = build_curve_alpha(lam).phi
    f = fermat_cubic(field)
    found = []
    seen = set()
    for fid in enumerate_classes("rank2_3gen", field).representatives:
        mat = fid.build().phi
        restricted = mat.map_entries(lambda p: p.restrict(4, 0))
        verdict = scalar_equivalence(restricted, alpha)
        if verdict.outcome != "equivalent_with_witness":
            continue
        U, V = verdict.witness
        lifted = U * mat * _const_inverse(V)
        if determinant(lifted) != f:
            continue
        gamma2 = tuple(lifted[i, j].coefficient((0, 0, 0, 1))
                       for i in range(3) for j in range(3))
        if gamma2 in seen:
            continue
        seen.add(gamma2)
        found.append(gamma2)
    if len(_CANDIDATE_CACHE) >= _CANDIDATE_CACHE_LIMIT:
        _CANDIDATE_CACHE.clear()
    _CANDIDATE_CACHE[key] = tuple(found)
    return _CANDIDATE_CACHE[key]


def _solve_gamma3(lam, corner, gamma2):
    """A particular (a4, a5, a6) killing all four residuals, or None.

    With everything else fixed the residual system is affine-linear in the
    Gamma3 entries, so _gamma3_system is evaluated once, on the block with
    a4 = a5 = a6 = 0.  The rows [row | -constant] of i6, i7 and i9 are
    row-reduced exactly and their free unknowns pinned to zero; that
    particular solution is returned only if the row of i10 vanishes at it
    too.
    """
    field = lam.field
    *system, last = _gamma3_system(
        lam, GammaBlock(field, corner + (0, 0, 0) + gamma2))
    rows = [list(row) + [-constant] for row, constant in system]
    reduced, pivots = field_rref(rows, field, ncols=4)
    if 3 in pivots:
        return None
    solution = [field(0)] * 3
    for row, pivot in zip(reduced, pivots):
        solution[pivot] = row[3]
    if _affine_value(*last, solution):
        return None
    return tuple(solution)


def sample_moduli_point(lam, seed, budget):
    """Search for a certified point over lam, deterministically in seed.

    Every attempt draws a skew corner (a1, a2, a3) from the seeded stream.
    Odd attempts draw three free values as well and take the Gamma2 block
    from gamma2_solve; even attempts cycle through the structured catalog
    blocks, which certify whenever the residual solve goes through.  Each
    candidate solves the four residuals for (a4, a5, a6) from one
    evaluation of their affine system, exactly, and is certified by Pf = f
    before being returned.  Exhausting the budget returns None.
    """
    field = _affine_field(lam)
    rng = random.Random(seed)
    structured = _structured_gamma2(lam)
    for attempt in range(1, budget + 1):
        corner = tuple(field(rng.randint(-_DRAW_BOUND, _DRAW_BOUND))
                       for _ in range(3))
        if structured and attempt % 2 == 0:
            gamma2 = structured[(attempt // 2 - 1) % len(structured)]
        else:
            free = tuple(rng.randint(-_DRAW_BOUND, _DRAW_BOUND)
                         for _ in range(3))
            solved = gamma2_solve(lam, free)
            gamma2 = tuple(solved.a(i) for i in range(7, 16))
        gamma3 = _solve_gamma3(lam, corner, gamma2)
        if gamma3 is None:
            continue
        point = ModuliPoint(lam, GammaBlock(field, corner + gamma3 + gamma2))
        if point.certified:
            return point
    return None


# -- transports ------------------------------------------------------------------

def _const_inverse(M):
    det = determinant(M).constant_term()
    if not det:
        raise ModuliError("matrix is not invertible")
    return adjugate(M) * det.inv()


def chart_transport(lam):
    """A constant 6x6 block matrix U = [[0, T1], [T2, 0]] carrying the pencil
    over the chart-[l1:1:0] point lam to the pencil over [0:b:1], b = 1/l1,
    via Lambda -> U * Lambda * U^t.

    The blocks come from a scalar_equivalence witness (X, Y) of
    X * alpha_lam^t = alpha_target * Y rather than from fixed closed forms
    (see ERRATA.md for why): T2 = -X and T1 = (Y^t)^(-1), and the resulting
    U is re-checked against the pencil identity before being returned.
    """
    if lam.chart != 2:
        raise FamilyError("chart transport starts from the chart [l1:1:0]")
    field = lam.field
    target = CurvePoint.affine(field, 0, lam.l1.inv())
    alpha = build_curve_alpha(lam).phi
    verdict = scalar_equivalence(alpha.transpose(),
                                 build_curve_alpha(target).phi)
    if verdict.outcome != "equivalent_with_witness":
        raise FamilyError("no invertible intertwining transport found")
    X, Y = verdict.witness
    zero3 = PolyMatrix.zeros(field, 3)
    U = block([[zero3, _const_inverse(Y.transpose())], [-X, zero3]])
    source = block([[zero3, -alpha.transpose()], [alpha, zero3]])
    if U * source * U.transpose() != build_six_gen(target,
                                                   GammaBlock.zero(field)):
        raise FamilyError("derived transport failed the pencil identity")
    return U


# -- group actions ---------------------------------------------------------------

def _scaling_matrix(field, k):
    top = PolyMatrix.identity(field, 3, scale=k)
    bottom = PolyMatrix.identity(field, 3, scale=k.inv())
    zero3 = PolyMatrix.zeros(field, 3)
    return block([[top, zero3], [zero3, bottom]])


def group_action(kind, lam, mat, k=None, coeffs=None):
    """Apply one of the three pencil actions and return the moved matrix.

    kind "Uk" conjugates by diag(k, k, k, 1/k, 1/k, 1/k) and needs k != 0;
    on a pencil this keeps Gamma2, scales Gamma1 by k^2 and Gamma3 by 1/k^2.
    kind "S2" moves the pencil to one over the reversed point via the
    transport pair (U, V) of the curve alpha.  kind "H" acts only over
    self-dual points [1:b:1] and conjugates by the block matrix built from
    coeffs = (K1, K2, K3, K4) with K1*K4 - K2*K3 = 1.
    """
    field = _affine_field(lam)
    if not isinstance(mat, PolyMatrix) or mat.nrows != 6 or mat.ncols != 6:
        raise ModuliError("the action applies to a 6x6 matrix")
    if kind == "Uk":
        if k is None:
            raise ModuliError("kind Uk needs the scale k")
        k = field(k)
        if not k:
            raise ModuliError("k must be invertible")
        U = _scaling_matrix(field, k)
        return U * mat * U.transpose()
    if kind == "S2":
        U, V = transport_matrices(lam)
        left = block([[PolyMatrix.zeros(field, 3),
                       PolyMatrix.identity(field, 3)],
                      [-U, PolyMatrix.zeros(field, 3)]])
        right = block([[PolyMatrix.identity(field, 3),
                        PolyMatrix.zeros(field, 3)],
                       [PolyMatrix.zeros(field, 3),
                        _const_inverse(V)]])
        return left * mat * right
    if kind == "H":
        if lam.a != field(1):
            raise ModuliError("kind H needs a self-dual point [1:b:1]")
        if coeffs is None:
            raise ModuliError("kind H needs coeffs = (K1, K2, K3, K4)")
        k1, k2, k3, k4 = (field(c) for c in coeffs)
        if k1 * k4 - k2 * k3 != field(1):
            raise ModuliError("coeffs must satisfy K1*K4 - K2*K3 = 1")
        U, _ = transport_matrices(lam)
        H = block([[PolyMatrix.identity(field, 3, scale=k4),
                    -k3 * _const_inverse(U)],
                   [(-k2) * U, PolyMatrix.identity(field, 3, scale=k1)]])
        if not determinant(H).constant_term():
            raise ModuliError("the H matrix is not invertible")
        return H * mat * H.transpose()
    raise ModuliError("unknown action kind %r" % (kind,))


def pfaffian_sign_flip(mat):
    """Conjugate by the odd swap of the first two rows.

    This negates the Pfaffian while preserving skewness and the
    determinant, moving between the two sheets det = f^2, Pf = +/-f.
    """
    if not mat.is_square() or mat.nrows % 2 or not mat.is_skew():
        raise ModuliError("the sign flip needs an even skew matrix")
    field = mat.field
    rows = []
    for i in range(mat.nrows):
        j = {0: 1, 1: 0}.get(i, i)
        rows.append([1 if c == j else 0 for c in range(mat.nrows)])
    P = PolyMatrix(field, rows)
    return P * mat * P.transpose()


# -- decomposition ---------------------------------------------------------------

def decompose_if_gamma_zero(mat):
    """Split a pencil with both skew corners zero into its 3x3 blocks.

    Returns (P, top, bottom) where P is the witness swapping the two row
    halves, P*mat is block-diagonal with the returned blocks, and
    bottom = -top^t.  Returns None when either corner carries an x4 term.
    Raises on input that is not a skew 6x6 matrix of linear forms.
    """
    if (not isinstance(mat, PolyMatrix) or mat.nrows != 6 or mat.ncols != 6
            or not mat.is_skew()):
        raise ModuliError("expected a skew 6x6 pencil")
    for i in range(6):
        for j in range(6):
            entry = mat[i, j]
            if entry != entry.linear_part():
                raise ModuliError("pencil entries must be linear forms")
    x4 = (0, 0, 0, 1)
    for i in range(3):
        for j in range(3):
            if mat[i, j].coefficient(x4) or mat[i + 3, j + 3].coefficient(x4):
                return None
    field = mat.field
    zero3 = PolyMatrix.zeros(field, 3)
    eye3 = PolyMatrix.identity(field, 3)
    P = block([[zero3, eye3], [eye3, zero3]])
    moved = P * mat
    top = moved.submatrix(range(3), range(3))
    bottom = moved.submatrix(range(3, 6), range(3, 6))
    if moved != block([[top, zero3], [zero3, bottom]]):
        raise ModuliError("pencil did not split into diagonal blocks")
    return P, top, bottom
