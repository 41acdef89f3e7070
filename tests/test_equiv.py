import gc
import hashlib
import random
from collections import namedtuple
from fractions import Fraction

import pytest

import fermatmf.equiv as equiv
from fermatmf.equiv import (
    EquivError,
    EquivalenceVerdict,
    enumerate_classes,
    linear_reduction,
    matrix_equation_solvable,
    pairwise_distinctness,
    scalar_equivalence,
)
from fermatmf.families import (
    FamilyId,
    SigmaPerm,
    SurfacePoint,
    building_blocks,
    point_forms,
)
from fermatmf.field import omega_field, special_roots
from fermatmf.matrix import (MatrixError, PolyMatrix, determinant, field_rref,
                             minors)
from fermatmf.poly import LINEAR_EXPS, Polynomial, grlex_key

F = omega_field()
W = F.gen("w")
ROOTS = special_roots(F)
CUBE_ROOTS = ROOTS.roots_of_minus_one
PRIMITIVE = ROOTS.primitive_cube_roots
SIGMA = SigmaPerm(2, 3, 4)
# the roots (a, b, u) of one sigma listing
Roots = namedtuple("Roots", "a b u")
R = Roots(-1, -W, W)


def x(i):
    return Polynomial.variable(F, i)


def _phi(name, r=R, **params):
    """phi of the family id ``name`` over SIGMA and the roots of ``r``."""
    params.update(sigma=SIGMA, a=r.a, b=r.b, u=r.u)
    return FamilyId(F, name, params).build().phi


def _phi_lambda(lam):
    return FamilyId(F, "phi_lambda", {"lam": lam}).build().phi


def _rref_span(polys):
    exps = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    rows = [[p.coefficient(e) for e in exps] for p in polys]
    reduced, pivots = field_rref(rows, F)
    out = []
    for k in range(len(pivots)):
        out.append(Polynomial(F, {e: c for e, c in zip(exps, reduced[k]) if c}))
    return tuple(out)


def _linear_span(M):
    """Reduced basis of the span of the linear parts of M's entries."""
    return _rref_span([e for row in linear_reduction(M).entries
                       for e in row])


# -- reduction ------------------------------------------------------------------

def test_reduction_of_phi_1_kills_the_last_two_rows():
    phi = _phi("phi_t_sigma", t=1)
    tilde = linear_reduction(phi)
    for i in (2, 3):
        for j in range(4):
            assert not tilde[i, j]
    assert tilde[0, 1] == building_blocks(F, SIGMA, *R).w1


def test_reduction_of_psi_1_kills_the_first_two_columns():
    psi = _phi("psi_t_sigma", t=1)
    tilde = linear_reduction(psi)
    for i in range(4):
        for j in (0, 1):
            assert not tilde[i, j]


def test_linear_matrix_reduces_to_itself():
    M = PolyMatrix(F, [[x(1), x(2) - x(3)], [0, x(4)]])
    assert linear_reduction(M) == M


def test_reduction_drops_every_term_of_degree_other_than_one():
    M = PolyMatrix(F, [[x(1) * x(1) + x(2) + 3, x(1) * x(2) * x(3)],
                       [7, x(4) - 2 * x(3) * x(3)]])
    reduced = linear_reduction(M)
    assert isinstance(reduced, PolyMatrix)
    assert reduced == PolyMatrix(F, [[x(2), 0], [0, x(4)]])


def test_verdict_witness_bookkeeping():
    with pytest.raises(EquivError):
        EquivalenceVerdict("not_equivalent", witness=(PolyMatrix.identity(F, 2),))
    with pytest.raises(EquivError):
        EquivalenceVerdict("equivalent_with_witness")


def test_phi_lambda_span_is_the_point_forms():
    lam = SurfacePoint(F, (-1, 0, 0, 1))
    fs = point_forms(lam)
    assert _linear_span(_phi_lambda(lam)) == _rref_span([fs.p1, fs.p2, fs.p3])


def test_phi_sigma_span_is_w1_w2():
    fs = building_blocks(F, SIGMA, *R)
    assert _linear_span(_phi("phi_sigma")) == _rref_span([fs.w1, fs.w2])


def test_spans_separate_distinct_lambda():
    points = [SurfacePoint(F, (-1, 0, 0, 1)), SurfacePoint(F, (0, -1, 0, 1)),
              SurfacePoint(F, (-W, 0, 0, 1)), SurfacePoint(F, (0, 0, -W, 1))]
    spans = [_linear_span(_phi_lambda(p)) for p in points]
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            assert spans[i] != spans[j]


# -- scalar equivalence ---------------------------------------------------------

def test_scalar_equivalence_is_reflexive():
    tilde = linear_reduction(_phi("phi_t_sigma", t=1))
    verdict = scalar_equivalence(tilde, tilde)
    assert verdict.outcome == "equivalent_with_witness"
    U, V = verdict.witness
    assert U * tilde == tilde * V
    assert determinant(U) and determinant(V)
    # the identity pair is of course also a witness
    I = PolyMatrix.identity(F, 4)
    assert I * tilde == tilde * I


def test_phi_1_and_psi_3_differ_at_equal_u():
    left = linear_reduction(_phi("phi_t_sigma", t=1))
    right = linear_reduction(_phi("psi_t_sigma", t=3))
    verdict = scalar_equivalence(left, right)
    assert verdict.outcome == "not_equivalent"


def test_phi_1_and_psi_3_collide_under_the_u_swap():
    """At u <-> u^2 the two reductions really are equivalent: one constant
    pair works uniformly in (a, b), while the full matrices never satisfy
    the same intertwining identity."""
    U0 = PolyMatrix(F, [[0, 1, 0, 0], [-1, 0, 0, 0],
                        [0, 0, 1, 0], [0, 0, 0, 1]])
    V0 = PolyMatrix(F, [[0, -1, 0, 0], [1, 0, 0, 0],
                        [0, 0, 0, 1], [0, 0, -1, 0]])
    u = PRIMITIVE[0]
    for a in CUBE_ROOTS:
        for b in CUBE_ROOTS:
            phi = _phi("phi_t_sigma", Roots(a, b, u), t=1)
            psi = _phi("psi_t_sigma", Roots(a, b, u * u), t=3)
            left = linear_reduction(phi)
            right = linear_reduction(psi)
            assert U0 * left == right * V0
            assert U0 * phi != psi * V0
    verdict = scalar_equivalence(linear_reduction(phi), linear_reduction(psi))
    assert verdict.outcome == "equivalent_with_witness"
    U, V = verdict.witness
    assert U * left == right * V


def test_the_u_swap_collision_extends_to_the_full_matrices():
    """The frozen pair U0, V0 fails on the full matrices, but a different
    constant pair does work there, so the two slots present isomorphic
    modules and the 432-member catalog genuinely overcounts."""
    phi = _phi("phi_t_sigma", t=1)
    psi = _phi("psi_t_sigma", Roots(-1, -W, W * W), t=3)
    verdict = scalar_equivalence(phi, psi)
    assert verdict.outcome == "equivalent_with_witness"
    U, V = verdict.witness
    assert U * phi == psi * V
    assert determinant(U) and determinant(V)


def test_rho_does_not_collide_under_the_u_swap():
    # unlike the four generator displays, the five generator ones keep the
    # two primitive cube roots apart -- at both the full and reduced level
    rho_u = _phi("rho")
    rho_uu = _phi("rho", Roots(-1, -W, W * W))
    assert scalar_equivalence(rho_u, rho_uu).outcome == "not_equivalent"
    reduced = scalar_equivalence(linear_reduction(rho_u),
                                 linear_reduction(rho_uu))
    assert reduced.outcome == "not_equivalent"


def test_rho_and_mu_reductions_differ():
    rho = linear_reduction(_phi("rho"))
    mu = linear_reduction(_phi("mu"))
    assert scalar_equivalence(rho, mu).outcome == "not_equivalent"


def test_scalar_equivalence_checks_dimensions():
    A = PolyMatrix(F, [[x(1)]])
    B = PolyMatrix(F, [[x(1), x(2)]])
    with pytest.raises(MatrixError):
        scalar_equivalence(A, B)


def test_the_sampling_fallback_still_finds_witnesses(monkeypatch):
    monkeypatch.setattr(equiv, "_PARAM_LIMIT", 0)
    tilde = linear_reduction(_phi("phi_t_sigma", t=1))
    verdict = scalar_equivalence(tilde, tilde)
    assert verdict.outcome == "equivalent_with_witness"
    assert verdict.method == "sampled_witness"
    U, V = verdict.witness
    assert U * tilde == tilde * V


def test_the_sampling_fallback_reports_singular_spaces(monkeypatch):
    # U*A = B*V forces the second column of V to vanish, so V is singular
    # on the whole solution space and every draw fails
    monkeypatch.setattr(equiv, "_PARAM_LIMIT", 0)
    A = PolyMatrix(F, [[x(1), 0], [0, 0]])
    B = PolyMatrix(F, [[x(1), x(2)], [0, 0]])
    verdict = scalar_equivalence(A, B)
    assert verdict.outcome == "inconclusive"
    assert verdict.method == "sampled_determinant"
    assert "64" in verdict.detail


def test_a_wide_solution_space_is_sampled_for_a_witness():
    # U*x1 = x1*V forces U = V: 16 free parameters, past _PARAM_LIMIT
    A = PolyMatrix.identity(F, 4, scale=x(1))
    verdict = scalar_equivalence(A, A)
    assert verdict.outcome == "equivalent_with_witness"
    assert verdict.method == "sampled_witness"
    U, V = verdict.witness
    assert U * A == A * V
    assert determinant(U) and determinant(V)


def test_a_wide_singular_space_is_inconclusive():
    # B's x2 at [0, 4] forces the last column of V to vanish: 21 free
    # parameters, past _PARAM_LIMIT, and no draw can give an invertible V
    A = PolyMatrix(F, [[x(1) if i == j < 4 else 0 for j in range(5)]
                       for i in range(5)])
    B = A + PolyMatrix(F, [[x(2) if (i, j) == (0, 4) else 0
                            for j in range(5)] for i in range(5)])
    verdict = scalar_equivalence(A, B)
    assert verdict.outcome == "inconclusive"
    assert verdict.method == "sampled_determinant"
    assert "21-parameter" in verdict.detail


# -- bounded-degree matrix equations --------------------------------------------

def _corner_blocks():
    fs = building_blocks(F, SIGMA, *R)
    xj, xs = x(SIGMA.j), x(SIGMA.s)
    left = PolyMatrix(F, [[fs.w1, -fs.v2], [fs.w2, fs.v1]])
    right = PolyMatrix(F, [[fs.v1, fs.v2], [-fs.w2, fs.w1]])
    corner = PolyMatrix.identity(F, 2, scale=xj * xs)
    return left, right, corner


def test_the_corner_block_equation_is_unsolvable():
    left, right, corner = _corner_blocks()
    for bound in (1, 2):
        ok, witness = matrix_equation_solvable(left, right, corner, bound)
        assert not ok and witness is None


def test_the_t1_block_equation_is_unsolvable():
    fs = building_blocks(F, SIGMA, *R)
    xs = x(SIGMA.s)
    left = PolyMatrix(F, [[fs.w2, -fs.w1], [fs.v1, fs.v2]])
    right = PolyMatrix(F, [[fs.w1, fs.v2pp], [-fs.w2 * fs.v2p, fs.v1]])
    target = PolyMatrix(F, [[Polynomial.zero(F), xs],
                            [xs * fs.v2p, Polynomial.zero(F)]])
    for bound in (1, 2):
        ok, witness = matrix_equation_solvable(left, right, target, bound)
        assert not ok and witness is None


def test_an_equation_with_target_w_is_solvable():
    left, right, _ = _corner_blocks()
    ok, witness = matrix_equation_solvable(left, right, left, 1)
    assert ok
    A, B = witness
    assert left * A + B * right == left


def test_matrix_equation_checks_dimensions():
    left, right, _ = _corner_blocks()
    bad = PolyMatrix(F, [[x(1)]])
    with pytest.raises(MatrixError):
        matrix_equation_solvable(left, right, bad, 1)


# -- catalogs -------------------------------------------------------------------

def test_the_three_generator_catalog_has_72_classes():
    report = enumerate_classes("rank2_3gen")
    assert report.count == 72
    names = {}
    for fid in report.representatives:
        names[fid.name] = names.get(fid.name, 0) + 1
    assert names == {"alpha3": 27, "beta3": 27, "eta3": 12, "theta3": 6}


def test_the_4gen_catalog_has_432_members():
    report = enumerate_classes("nonorientable_4gen")
    assert report.count == 432
    assert report.count == len(set(str(fid) for fid in report.representatives))


def test_the_5gen_catalog_has_162_members():
    report = enumerate_classes("nonorientable_5gen")
    assert report.count == 162
    names = {}
    for fid in report.representatives:
        names[fid.name] = names.get(fid.name, 0) + 1
    assert names == {"rho": 54, "mu": 54, "mubar": 54}


@pytest.mark.parametrize("catalog, groups", [("rank2_3gen", 36),
                                             ("nonorientable_4gen", 108)])
def test_reduction_keys_split_the_catalog_into_fixed_groups(catalog, groups):
    # a change to the key's minor spans that splits or merges groups of
    # equal keys shows up here before it changes a sweep's method mix
    keys = {equiv._reduction_key(linear_reduction(fid.build().phi))
            for fid in enumerate_classes(catalog).representatives}
    assert len(keys) == groups


def test_reduction_keys_are_byte_identical():
    # golden sha256 over the keys of all 666 catalog matrices, one repr per
    # line: any change to a rank, a minor span or its printed echelon shows up
    lines = [repr(equiv._reduction_key(linear_reduction(fid.build().phi)))
             for catalog in ("rank2_3gen", "nonorientable_4gen",
                             "nonorientable_5gen")
             for fid in enumerate_classes(catalog).representatives]
    assert len(lines) == 666
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == ("05ae8868b03e3a7f3cdb72cdc882f14d"
                      "21f442df06639d4179dcdce163a5b587")


def test_catalog_ids_are_sorted_and_buildable():
    for catalog in ("rank2_3gen", "nonorientable_4gen", "nonorientable_5gen"):
        report = enumerate_classes(catalog)
        texts = [str(fid) for fid in report.representatives]
        assert texts == sorted(texts)
        # spot-build the two ends of each catalog
        report.representatives[0].build()
        report.representatives[-1].build()


def test_unknown_catalog_is_rejected():
    with pytest.raises(EquivError):
        enumerate_classes("rank9")


def _whole_matrix_key(M):
    """The reduction key read off all of M, zero rows and columns
    included: dense stack rows, and every minor of every level from one
    ``minors`` table."""
    n, m = M.nrows, M.ncols
    coefficient = [[M.entries[i][j].coefficient(e) for j in range(m)]
                   for i in range(n) for e in LINEAR_EXPS]
    horiz = [sum(coefficient[4 * i:4 * i + 4], []) for i in range(n)]
    vert = [coefficient[4 * i + v] for v in range(4) for i in range(n)]
    size = min(n, m) - 1
    levels = minors(M, size)
    spans = []
    for k in range(1, size + 1):
        polys = list(levels[k].values())
        support = sorted({e for p in polys for e in p.terms}, key=grlex_key)
        if not support:
            spans.append((k, "zero"))
            continue
        reduced, pivots = field_rref(
            [[p.coefficient(e) for e in support] for p in polys], F)
        spans.append((k, tuple(support), pivots,
                      tuple(tuple(str(c) for c in reduced[row])
                            for row in range(len(pivots)))))
    return (len(field_rref(horiz, F)[1]), len(field_rref(vert, F)[1]),
            tuple(spans))


def _sparse_linear(rng, n, m, dead_rows=(), dead_cols=()):
    """A seeded n x m matrix of linear forms, about half its entries zero,
    with the given rows and columns all zero."""
    coefficients = (1, -1, 2, W, -W, 1 + W, Fraction(1, 2), Fraction(-2, 3))
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            terms = {}
            if i not in dead_rows and j not in dead_cols \
                    and rng.random() < 0.5:
                for e in rng.sample(LINEAR_EXPS, rng.randint(1, 3)):
                    terms[e] = rng.choice(coefficients)
            row.append(Polynomial(F, terms))
        rows.append(row)
    return PolyMatrix(F, rows)


def test_the_live_block_key_equals_the_whole_matrix_key():
    rng = random.Random(1980)
    cases = [PolyMatrix.zeros(F, 4),
             _sparse_linear(rng, 3, 5, dead_rows=(0, 1, 2)),
             _sparse_linear(rng, 4, 4, dead_rows=(0, 2, 3)),
             _sparse_linear(rng, 5, 3, dead_rows=(0, 1, 3, 4)),
             _sparse_linear(rng, 4, 5, dead_rows=(1,), dead_cols=(2,)),
             _sparse_linear(rng, 5, 5, dead_rows=(1, 3), dead_cols=(2,))]
    for n in range(2, 6):
        for m in range(2, 6):
            for _ in range(3):
                dead_rows = rng.sample(range(n), rng.randint(0, n - 1))
                dead_cols = rng.sample(range(m), rng.randint(0, 1))
                cases.append(_sparse_linear(rng, n, m, dead_rows, dead_cols))
    for M in cases:
        assert equiv._reduction_key(M) == _whole_matrix_key(M)


# -- pairwise sweeps ------------------------------------------------------------

def test_duplicates_are_flagged_identical():
    phi = _phi("phi_t_sigma", t=1)
    psi = _phi("phi_t_sigma", t=2)
    report = pairwise_distinctness([phi, psi, phi])
    methods = {tuple(e["pair"]): e["method"] for e in report.evidence}
    assert methods[(0, 2)] == "identical_params"
    assert (0, 2) in report.inconclusive
    outcomes = {tuple(e["pair"]): e["outcome"] for e in report.evidence}
    assert outcomes[(0, 2)] == "inconclusive"


def test_distinct_family_members_are_separated():
    mats = [_phi(kind + "_t_sigma", t=t)
            for t in (1, 2, 3, 4) for kind in ("phi", "psi")]
    report = pairwise_distinctness(mats)
    assert report.inconclusive == ()
    assert len(report.evidence) == 28
    assert report.count == 8 and report.catalog == "8 matrices"
    assert all(set(record) == {"pair", "method", "outcome"}
               for record in report.evidence)
    # the report keeps none of the matrices it compared
    held = gc.get_referents(report)
    held += [item for value in held if isinstance(value, tuple)
             for item in value]
    assert not any(item is M for item in held for M in mats)


