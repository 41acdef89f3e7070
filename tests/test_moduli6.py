"""Tests for the 6x6 pencil layer: equations, sampling, actions, splitting."""

import hashlib
import random
from fractions import Fraction

import pytest

import fermatmf.moduli6 as moduli6
from fermatmf.field import omega_field, sextic_field
from fermatmf.families import (
    CurvePoint,
    FamilyId,
    GammaBlock,
    build_curve_alpha,
    build_six_gen,
)
from fermatmf.matrix import (PolyMatrix, block, determinant, field_rref,
                             pfaffian)
from fermatmf.poly import fermat_cubic
from fermatmf.moduli6 import (
    ModuliError,
    ModuliPoint,
    decompose_if_gamma_zero,
    equation_values,
    gamma2_solve,
    group_action,
    linear_system_nullity,
    pfaffian_sign_flip,
    residual_equations,
    sample_moduli_point,
)

F = omega_field()
W = F.gen("w")
LAM = CurvePoint.affine(F, 0, -1)
FQ = fermat_cubic(F)
X4 = (0, 0, 0, 1)

_SAMPLED = []


def sampled_point():
    if not _SAMPLED:
        _SAMPLED.append(sample_moduli_point(LAM, 1, 60))
    return _SAMPLED[0]


# -- the linear system -----------------------------------------------------------

def test_the_printed_b_zero_solution():
    for a in (-W, -(W * W)):
        lam = CurvePoint.affine(F, a, 0)
        g = gamma2_solve(lam, (0, 1, 0))
        assert g.a(7) == -(a * a + 1)
        assert g.a(12) == F(1)
        assert g.a(14) == a * a
        for i in (8, 9, 10, 11, 13, 15):
            assert not g.a(i)
        assert not any(g.values[:6])  # Gamma1 = Gamma3 = 0


def test_the_printed_b_nonzero_solution_on_the_axis():
    for b in (F(-1), -W, -(W * W)):
        lam = CurvePoint.affine(F, 0, b)
        g = gamma2_solve(lam, (1, 0, 0))
        assert g.a(8) == -b
        assert g.a(9) == b.inv()
        assert g.a(10) == b
        assert g.a(12) == F(-3)
        assert g.a(13) == -b.inv()
        assert g.a(14) == F(2)


def test_gamma2_solutions_annihilate_the_linear_system():
    # generic free values, one point per branch, and a point with a*b != 0
    cases = [
        (CurvePoint.affine(F, -W, 0), (3, -2, 5)),
        (CurvePoint.affine(F, 0, -(W * W)), (2, W, -1)),
    ]
    sx = sextic_field()
    cases.append((CurvePoint.affine(sx, 1, sx.gen("g")), (1, -2, 3)))
    for lam, free in cases:
        g = gamma2_solve(lam, free)
        vals = equation_values(lam, g)
        for i in (0, 1, 2, 3, 4, 7):
            assert not vals[i]


def test_free_values_are_read_back_from_the_block():
    g = gamma2_solve(LAM, (5, 7, 11))
    assert (g.a(7), g.a(11), g.a(15)) == (F(5), F(7), F(11))
    h = gamma2_solve(CurvePoint.affine(F, -W, 0), (5, 7, 11))
    assert (h.a(11), h.a(12), h.a(13)) == (F(5), F(7), F(11))


def test_linear_system_nullity_is_three_in_both_branches():
    assert linear_system_nullity(LAM) == (6, 3)
    assert linear_system_nullity(CurvePoint.affine(F, -W, 0)) == (6, 3)
    sx = sextic_field()
    assert linear_system_nullity(CurvePoint.affine(sx, 1, sx.gen("g"))) == (6, 3)


def test_wrong_chart_is_rejected():
    lam = CurvePoint.at_infinity(F, -1)
    with pytest.raises(ModuliError):
        gamma2_solve(lam, (0, 0, 0))
    with pytest.raises(ModuliError):
        linear_system_nullity(lam)
    with pytest.raises(ModuliError):
        sample_moduli_point(lam, 1, 1)


def test_free_values_must_be_three():
    with pytest.raises(ModuliError):
        gamma2_solve(LAM, (1, 2))


def test_gamma_field_must_match_the_point():
    with pytest.raises(ModuliError):
        equation_values(LAM, GammaBlock.zero(sextic_field()))


# -- residual equations ----------------------------------------------------------

def test_residual_values_at_gamma_zero():
    vals = residual_equations(LAM, GammaBlock.zero(F))
    assert [str(v) for v in vals] == ["0", "0", "-1", "0"]


def test_residuals_reduce_to_corner_products_without_gamma2():
    a1, a2, a3, a4, a5, a6 = (F(v) for v in (2, 3, 5, 7, 11, 13))
    g = GammaBlock(F, (2, 3, 5, 7, 11, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    r = residual_equations(LAM, g)
    assert r[0] == a3 * a4 - a2 * a5 + a1 * a6
    assert r[1] == a1 * a4 + a3 * a5 + a2 * a6
    assert r[2] == F(-1)


def test_all_ten_equations_vanish_exactly_on_certified_points():
    point = sampled_point()
    assert point is not None
    assert not any(equation_values(LAM, point.gamma))


def test_the_equations_track_the_pfaffian():
    # perturb one parameter of a certified block: the equations pick it up
    # and the Pfaffian moves off f in the same step
    point = sampled_point()
    values = [point.gamma.a(i) for i in range(1, 16)]
    values[12] = values[12] + 1
    bumped = GammaBlock(F, values)
    assert any(equation_values(LAM, bumped))
    assert pfaffian(build_six_gen(LAM, bumped)) != FQ


# Seeded blocks at [0:-1:1] and [-w:0:1] over Q(w) and the sextic tower, and
# at the self-dual points [1:g*w^k:1]; each coefficient over the basis
# w^i*g^j is drawn with zeros and fractions among the values.
_DRAWS = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _basis(field):
    basis = [field(1)]
    for name, modulus in field.levels:
        gen = field.gen(name)
        basis = [b * gen ** k for k in range(len(modulus) - 1) for b in basis]
    return basis


def _seeded_cases():
    omega, sextic = omega_field(), sextic_field()
    points = [CurvePoint.affine(field, a, b)
              for field in (omega, sextic)
              for a, b in ((0, -1), (-field.gen("w"), 0))]
    g, w = sextic.gen("g"), sextic.gen("w")
    points += [CurvePoint.affine(sextic, 1, g * w ** k) for k in range(3)]
    rng = random.Random(909)
    cases = []
    for lam in points:
        field = lam.field
        basis = _basis(field)
        for _ in range(30):
            values = [sum((rng.choice(_DRAWS) * b for b in basis), field(0))
                      if rng.random() < 0.8 else 0 for _ in range(15)]
            cases.append((lam, GammaBlock(field, values)))
    return cases


# sha256 over repr(equation_values(...)) of every seeded case, one per line
_EQUATIONS_DIGEST = (
    "58ebfd531576670b1f4797073b276cf555234a153d49d8702a5b2c7c9a39dbdf")


def test_the_equation_systems_are_slices_of_the_ten_equations():
    lines = []
    for lam, gamma in _seeded_cases():
        values = equation_values(lam, gamma)
        assert residual_equations(lam, gamma) == tuple(
            values[i] for i in (5, 6, 8, 9))
        assert moduli6._linear_values(lam, gamma) == tuple(
            values[i] for i in (0, 1, 2, 3, 4, 7))
        lines.append(repr(values))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _EQUATIONS_DIGEST


def _with_gamma3(gamma, gamma3):
    values = gamma.values
    return GammaBlock(gamma.field, values[:3] + tuple(gamma3) + values[6:])


def test_the_gamma3_system_matches_a_four_point_oracle():
    # the system read off the residuals at the base point and the three unit
    # points: each row is residuals(unit) - residuals(base), each constant is
    # residuals(base); it does not depend on (a4, a5, a6)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for lam, gamma in _seeded_cases():
        base = residual_equations(lam, _with_gamma3(gamma, (0, 0, 0)))
        at_units = [residual_equations(lam, _with_gamma3(gamma, u))
                    for u in units]
        system = moduli6._gamma3_system(lam, gamma)
        assert len(system) == 4
        for k, (row, constant) in enumerate(system):
            assert tuple(row) == tuple(r[k] - base[k] for r in at_units)
            assert constant == base[k]


def test_a_solved_gamma3_kills_the_three_residuals():
    # and the fourth, i10: the solve goes through on the structured Gamma2
    # blocks at [0:-1:1] and [-w:0:1] under seeded corners
    rng = random.Random(17)
    solved = 0
    for lam in (LAM, CurvePoint.affine(F, -W, 0)):
        for gamma2 in moduli6._structured_gamma2(lam):
            corner = tuple(F(rng.randint(-4, 4)) for _ in range(3))
            gamma3 = moduli6._solve_gamma3(lam, corner, gamma2)
            if gamma3 is None:
                continue
            solved += 1
            gamma = GammaBlock(F, corner + gamma3 + gamma2)
            assert not any(residual_equations(lam, gamma))
    assert solved


def test_a_sample_attempt_evaluates_the_gamma3_system_once(monkeypatch):
    # every evaluation of the residual system happens inside _solve_gamma3,
    # once per attempt, and the sampler re-checks no residual
    counts = {"solves": 0, "evaluations": 0, "outside": 0, "residuals": 0}
    inside = []

    def counted_solve(solve):
        def wrapper(*args):
            counts["solves"] += 1
            inside.append(True)
            try:
                return solve(*args)
            finally:
                inside.pop()
        return wrapper

    def counted_system(evaluate):
        def wrapper(*args):
            counts["evaluations" if inside else "outside"] += 1
            return evaluate(*args)
        return wrapper

    def counted_residuals(*args):
        counts["residuals"] += 1
        return residual_equations(*args)

    monkeypatch.setattr(moduli6, "_solve_gamma3",
                        counted_solve(moduli6._solve_gamma3))
    monkeypatch.setattr(moduli6, "_gamma3_system",
                        counted_system(moduli6._gamma3_system))
    monkeypatch.setattr(moduli6, "residual_equations", counted_residuals)
    point = sample_moduli_point(LAM, 1, 60)
    assert point == sampled_point() and point.certified
    assert counts["solves"] >= 1
    assert counts["evaluations"] == counts["solves"]
    assert counts["outside"] == counts["residuals"] == 0


def test_at_the_sextic_point_only_i10_stops_the_attempts(monkeypatch):
    # ROADMAP item 13's diagnosis, for these 50 attempts only: at [1:g:1]
    # over the sextic tower, seed 1 with budget 50 finds no point; the rows
    # of i6, i7 and i9 are consistent in every attempt but the 38th, and in
    # each consistent one i10 does not vanish at the solution that pins
    # their free unknowns to zero
    G = sextic_field()
    lam = CurvePoint.affine(G, 1, G.gen("g"))
    blocks = []
    evaluate = moduli6._gamma3_system

    def recorded(lam, gamma):
        blocks.append(gamma)
        return evaluate(lam, gamma)

    monkeypatch.setattr(moduli6, "_gamma3_system", recorded)
    assert sample_moduli_point(lam, 1, 50) is None
    monkeypatch.undo()
    assert len(blocks) == 50
    inconsistent = []
    for attempt, gamma in enumerate(blocks, 1):
        *rows, _ = evaluate(lam, gamma)
        reduced, pivots = field_rref(
            [list(row) + [-constant] for row, constant in rows], G, ncols=4)
        if 3 in pivots:
            inconsistent.append(attempt)
            continue
        gamma3 = [G(0)] * 3
        for row, pivot in zip(reduced, pivots):
            gamma3[pivot] = row[3]
        i6, i7, i9, i10 = residual_equations(lam, _with_gamma3(gamma, gamma3))
        assert not (i6 or i7 or i9)
        assert i10
    assert inconsistent == [38]


# -- certified points and sampling -----------------------------------------------

def test_certification_is_the_two_exact_identities():
    point = sampled_point()
    mat = point.matrix()
    assert point.certified
    assert mat.is_skew()
    assert pfaffian(mat) == FQ
    assert determinant(mat) == FQ * FQ
    restricted = mat.map_entries(lambda p: p.restrict(4, 0))
    assert restricted == build_six_gen(LAM, GammaBlock.zero(F))


def test_the_zero_block_does_not_certify():
    point = ModuliPoint(LAM, GammaBlock.zero(F))
    assert not point.certified


def test_sampling_is_deterministic_per_seed():
    again = sample_moduli_point(LAM, 1, 60)
    assert again == sampled_point()
    other = sample_moduli_point(LAM, 2, 60)
    assert other is not None
    assert other != sampled_point()


def test_the_candidate_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(moduli6, "_CANDIDATE_CACHE_LIMIT", 3)
    full = {("another point", n): () for n in range(3)}
    monkeypatch.setattr(moduli6, "_CANDIDATE_CACHE", full)
    found = moduli6._structured_gamma2(LAM)
    assert found
    assert list(moduli6._CANDIDATE_CACHE.values()) == [found]
    assert moduli6._structured_gamma2(LAM) is found


def test_sampling_honours_the_budget():
    assert sample_moduli_point(LAM, 1, 0) is None


def test_sampled_points_are_indecomposable():
    point = sampled_point()
    gamma = point.gamma
    assert any(gamma.values[:6])  # Gamma1 or Gamma3 nonzero
    assert decompose_if_gamma_zero(point.matrix()) is None


# -- group actions ---------------------------------------------------------------

def test_the_scaling_action_at_one_is_the_identity():
    mat = sampled_point().matrix()
    assert group_action("Uk", LAM, mat, k=1) == mat


def test_the_scaling_action_moves_the_corners():
    point = sampled_point()
    mat = point.matrix()
    k = F(3)
    moved = group_action("Uk", LAM, mat, k=k)
    g = point.gamma
    assert moved[0, 1].coefficient(X4) == k * k * g.a(1)
    assert moved[3, 0].coefficient(X4) == g.a(7)
    assert moved[3, 4].coefficient(X4) == g.a(4) / (k * k)
    assert moved.is_skew()
    assert pfaffian(moved) == FQ
    assert group_action("Uk", LAM, moved, k=k.inv()) == mat


def test_the_scaling_action_needs_an_invertible_scale():
    mat = sampled_point().matrix()
    with pytest.raises(ModuliError):
        group_action("Uk", LAM, mat, k=0)
    with pytest.raises(ModuliError):
        group_action("Uk", LAM, mat)


def test_the_duality_action_restricts_to_both_alphas():
    mat = sampled_point().matrix()
    moved = group_action("S2", LAM, mat)
    restricted = moved.map_entries(lambda p: p.restrict(4, 0))
    zero3 = PolyMatrix.zeros(F, 3)
    alpha = build_curve_alpha(LAM).phi
    alpha_dual = build_curve_alpha(LAM.dual()).phi
    assert restricted == block([[alpha, zero3], [zero3, alpha_dual]])
    assert determinant(moved) == FQ * FQ


def test_the_h_action_fixes_the_alpha_block_at_a_self_dual_point():
    sx = sextic_field()
    lam = CurvePoint.affine(sx, 1, sx.gen("g"))
    assert lam.dual() == lam
    base = build_six_gen(lam, GammaBlock.zero(sx))
    moved = group_action("H", lam, base, coeffs=(2, 3, 1, 2))
    assert moved.is_skew()
    assert pfaffian(moved) == pfaffian(base)
    assert moved.map_entries(lambda p: p.restrict(4, 0)) == base


def test_the_h_action_checks_its_group_law():
    sx = sextic_field()
    lam = CurvePoint.affine(sx, 1, sx.gen("g"))
    base = build_six_gen(lam, GammaBlock.zero(sx))
    with pytest.raises(ModuliError):
        group_action("H", lam, base, coeffs=(1, 1, 1, 1))
    with pytest.raises(ModuliError):
        group_action("H", lam, base)
    with pytest.raises(ModuliError):
        group_action("H", LAM, sampled_point().matrix(), coeffs=(1, 0, 0, 1))


def test_unknown_action_kinds_are_rejected():
    with pytest.raises(ModuliError):
        group_action("T", LAM, sampled_point().matrix())


def test_the_sign_flip_swaps_the_pfaffian_sheet():
    mat = sampled_point().matrix()
    flipped = pfaffian_sign_flip(mat)
    assert flipped.is_skew()
    assert pfaffian(flipped) == -FQ
    assert determinant(flipped) == FQ * FQ
    with pytest.raises(ModuliError):
        pfaffian_sign_flip(PolyMatrix.zeros(F, 3))
    with pytest.raises(ModuliError):
        pfaffian_sign_flip(PolyMatrix(F, [[0] * 3] * 2))
    with pytest.raises(ModuliError):
        pfaffian_sign_flip(PolyMatrix.identity(F, 2))


# -- decomposition ---------------------------------------------------------------

def _corner_free_point():
    # theta(-1, -w, -w^2)^t is alpha + x4*Gamma2 over [-w:0:1] on the nose
    lam = CurvePoint.affine(F, -W, 0)
    theta = FamilyId(F, "theta3", {"a": -1, "b": -W, "c": -(W * W)}).build().phi
    lifted = theta.transpose()
    alpha = build_curve_alpha(lam).phi
    diff = lifted - alpha
    gamma2 = tuple(diff[i, j].coefficient(X4) for i in range(3)
                   for j in range(3))
    return lam, ModuliPoint(lam, GammaBlock(F, (0, 0, 0, 0, 0, 0) + gamma2))


def test_a_corner_free_certified_point_exists():
    _, point = _corner_free_point()
    assert point.certified
    assert not any(point.gamma.values[:6])  # Gamma1 = Gamma3 = 0


def test_decomposition_produces_the_two_blocks():
    lam, point = _corner_free_point()
    mat = point.matrix()
    witness, top, bottom = decompose_if_gamma_zero(mat)
    zero3 = PolyMatrix.zeros(F, 3)
    assert witness * mat == block([[top, zero3], [zero3, bottom]])
    assert bottom == -top.transpose()
    alpha = build_curve_alpha(lam).phi
    assert top.map_entries(lambda p: p.restrict(4, 0)) == alpha
    assert determinant(top) == FQ
    assert determinant(bottom) == -FQ


def test_decomposition_rejects_malformed_input():
    with pytest.raises(ModuliError):
        decompose_if_gamma_zero(PolyMatrix.identity(F, 6))
    with pytest.raises(ModuliError):
        decompose_if_gamma_zero(PolyMatrix.zeros(F, 3))
