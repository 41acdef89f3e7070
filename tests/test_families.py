import hashlib
import itertools
from collections import namedtuple

import pytest

from fermatmf.families import (
    CurvePoint,
    FamilyError,
    FamilyId,
    FormSet,
    GammaBlock,
    SigmaPerm,
    SurfacePoint,
    build_curve_alpha,
    build_six_gen,
    building_blocks,
    five_points_example,
    point_forms,
    transport_matrices,
    _FAMILIES,
    _PARTNERS,
    _root,
    _slot_instance,
)
from fermatmf.equiv import enumerate_classes
from fermatmf.field import omega_field, sextic_field, special_roots
from fermatmf.matrix import (
    MatrixError,
    MatrixFactorization,
    PolyMatrix,
    block,
    determinant,
    format_one_line,
    pfaffian,
    pfaffian_adjoint,
    verify_matrix_factorization,
)
from fermatmf.moduli6 import chart_transport
from fermatmf.poly import Polynomial, fermat_cubic, fermat_cubic3, parse

F = omega_field()
W = F.gen("w")
ROOTS = special_roots(F)
CUBE_ROOTS = ROOTS.roots_of_minus_one          # -1, -w, -w^2
PRIMITIVE = ROOTS.primitive_cube_roots         # w, w^2
f = fermat_cubic(F)
f3 = fermat_cubic3(F)
# the roots (a, b, u) of one sigma listing
Roots = namedtuple("Roots", "a b u")


def literal(mf):
    """The raising literal check phi*psi = f*Id of a built pair."""
    return verify_matrix_factorization(mf.phi, mf.psi, mf.f)


def x(i):
    return Polynomial.variable(F, i)


def build(name, **params):
    """The certified pair of the family id ``name`` with ``params``."""
    return FamilyId(F, name, params).build()


def sigma_build(name, sigma, r, **params):
    """``build`` on sigma and the Roots ``r``."""
    return build(name, sigma=sigma, a=r.a, b=r.b, u=r.u, **params)


def _root_sweep():
    """All 54 (sigma, a, b, u) tuples behind the 4x4/5x5 sweeps."""
    for sigma in SigmaPerm.all():
        for a in CUBE_ROOTS:
            for b in CUBE_ROOTS:
                for u in PRIMITIVE:
                    yield sigma, Roots(a, b, u)


# -- parameter types ------------------------------------------------------------

def test_sigma_legal_values():
    assert len(SigmaPerm.all()) == 3
    s = SigmaPerm(2, 4, 3)
    assert (s.i, s.j, s.s) == (2, 4, 3)
    assert SigmaPerm.from_string("342") == SigmaPerm(3, 4, 2)
    with pytest.raises(FamilyError):
        SigmaPerm(3, 2, 4)  # i < j violated
    with pytest.raises(FamilyError):
        SigmaPerm.from_string("123")
    # str.isdigit admits the fullwidth digits; a sigma string takes 0-9 alone
    with pytest.raises(FamilyError, match="three digits"):
        SigmaPerm.from_string("\uff12\uff13\uff14")


def test_root_data_validation():
    # each root is checked by its own name, and comes back in the field
    assert _root(F, "a", -W) == -W and _root(F, "u", W) == W
    assert _root(F, "b", -1) == F(-1)
    with pytest.raises(FamilyError, match=r"^a must satisfy a\^3 = -1$"):
        _root(F, "a", 2)  # not a cube root of -1
    with pytest.raises(FamilyError, match=r"^u must satisfy u\^2 \+ u \+ 1"):
        _root(F, "u", 1)  # not primitive
    with pytest.raises(FamilyError,
                       match="^eps must be a primitive cube root of unity$"):
        _root(F, "eps", 1)


def test_surface_point_charts():
    assert SurfacePoint(F, (0, 0, -1, 1)).chart == 4
    assert SurfacePoint(F, (-1, 0, 1, 0)).chart == 3
    assert SurfacePoint(F, (-1, 1, 0, 0)).chart == 2
    with pytest.raises(FamilyError):
        SurfacePoint(F, (1, 1, 1, 1))  # f = 4 there
    with pytest.raises(FamilyError):
        SurfacePoint(F, (1, 2, 0, 0))  # fits no chart


def test_curve_point_rejects_p0_and_tracks_e():
    p = CurvePoint.affine(F, 0, -1)
    assert p.e == 1
    a, b, e = p.a, p.b, p.e
    assert e * b == -(a * a - a + 1) and e * (a + 1) == b * b
    with pytest.raises(FamilyError):
        CurvePoint(F, (-1, 0, 1))  # the excluded point
    with pytest.raises(FamilyError):
        CurvePoint.affine(F, 1, 1)  # not on the curve
    q = CurvePoint.at_infinity(F, -1)
    assert q.chart == 2 and q.e is None


def test_curve_point_duality_is_an_involution():
    p = CurvePoint.affine(F, -W, 0)
    assert p.dual().dual() == p
    q = CurvePoint.affine(F, 0, -1)
    assert q.dual().chart == 2
    assert q.dual().dual() == q
    K = sextic_field()
    g = K.gen("g")
    sd = CurvePoint.affine(K, 1, g)
    assert sd.dual() == sd  # [1:b:1] is self-dual


# -- form sets -------------------------------------------------------------------

def test_building_blocks_at_the_standard_instance():
    fs = building_blocks(F, SigmaPerm(2, 3, 4), -1, -1, W)
    assert fs.w1 == x(1) + x(4)
    assert fs.w2 == x(2) + x(3)
    assert fs.v1 == x(1) ** 2 - x(1) * x(4) + x(4) ** 2
    assert fs.v2 == x(2) ** 2 - x(2) * x(3) + x(3) ** 2
    assert fs.w1 * fs.v1 + fs.w2 * fs.v2 == f


def test_building_blocks_split_f_everywhere():
    for sigma, r in _root_sweep():
        fs = building_blocks(F, sigma, *r)
        assert fs.w1 * fs.v1 + fs.w2 * fs.v2 == f
        assert fs.v1p * fs.v1pp == fs.v1
        assert fs.v2p * fs.v2pp == fs.v2


def test_repeated_builds_share_their_forms():
    # one checked FormSet per (tower, sigma, a, b, u): separately given
    # equal roots give the same forms, and the displays built on them
    # share the forms, the variables and their negations
    sigma = SigmaPerm(2, 3, 4)
    first = building_blocks(F, sigma, -1, -W, W)
    second = building_blocks(F, SigmaPerm(2, 3, 4), F(-1), -W, W)
    assert second is first and second.w1 is first.w1
    assert building_blocks(F, sigma, -1, -W, W * W) is not first
    one = build("phi_t_sigma", t=1, sigma=sigma, a=-1, b=-W, u=W).phi
    two = build("phi_t_sigma", t=1, sigma=sigma, a=-1, b=-W, u=W).phi
    assert one[0, 1] is two[0, 1] is first.w1
    assert one[1, 0] is two[1, 0]        # -w1
    assert one[1, 2] is two[1, 2]        # -x4
    assert -first.w1 is one[1, 0] and one[1, 0] == -x(1) - x(4)


def test_building_blocks_check_their_input_before_the_memo():
    with pytest.raises(FamilyError, match="^sigma must be a SigmaPerm$"):
        building_blocks(F, (2, 3, 4), -1, -W, W)
    with pytest.raises(FamilyError, match="^u must satisfy"):
        building_blocks(F, SigmaPerm(2, 3, 4), -1, -W, 1)


def test_form_set_rejects_unknown_names():
    with pytest.raises(FamilyError):
        FormSet(F, w5=x(1))


def test_point_forms_in_all_three_charts():
    fs = point_forms(SurfacePoint(F, (0, 0, -1, 1)))
    assert fs.p1 == x(1) and fs.p2 == x(2)
    assert fs.p3 == x(3) + x(4)
    assert fs.q3 == x(3) ** 2 - x(3) * x(4) + x(4) ** 2
    fs = point_forms(SurfacePoint(F, (-1, 1, 0, 0)))
    assert fs.p2 == x(3) and fs.p3 == x(4)
    assert fs.q2 == x(3) ** 2 and fs.q3 == x(4) ** 2
    for coords in ((0, 0, -1, 1), (-W, 0, 1, 0), (-W * W, 1, 0, 0)):
        fs = point_forms(SurfacePoint(F, coords))
        assert fs.p1 * fs.q1 + fs.p2 * fs.q2 + fs.p3 * fs.q3 == f


# -- three-generated families ----------------------------------------------------

def test_alpha3_standard_instance():
    # a = b*c*d/eps = -w^2
    mf = literal(build("alpha3", b=-1, c=-1, d=-1, eps=W))
    assert mf.size == 3
    assert mf.phi[0, 1] == x(1) - (-W * W) * x(4)
    assert mf.f == f


def test_beta3_is_the_transpose_family():
    alpha = build("alpha3", b=-1, c=-1, d=-1, eps=W)
    beta = build("beta3", b=-1, c=-1, d=-1, eps=W)
    assert beta.phi == alpha.phi.transpose()
    literal(beta)


def test_eta3_and_theta3():
    mf = literal(build("eta3", a=-1, b=-W, c=-W * W, eps=W))
    assert mf.phi[1, 2] == 0
    literal(build("theta3", a=-1, b=-W, c=-W * W))
    with pytest.raises(FamilyError):
        build("eta3", a=-1, b=-1, c=-W, eps=W)


def test_three_generated_sweeps():
    # alpha3: any (b,c,d,eps), with a forced by b*c*d = eps*a
    count = 0
    for b, c, d in itertools.product(CUBE_ROOTS, repeat=3):
        for eps in PRIMITIVE:
            literal(build("alpha3", b=b, c=c, d=d, eps=eps))
            count += 1
    assert count == 54
    # eta3 / theta3: (a,b,c) a permutation of the three roots
    for a, b, c in itertools.permutations(CUBE_ROOTS):
        for eps in PRIMITIVE:
            literal(build("eta3", a=a, b=b, c=c, eps=eps))
        literal(build("theta3", a=a, b=b, c=c))


def test_curve_alpha_on_both_charts():
    mf = literal(build_curve_alpha(CurvePoint.affine(F, 0, -1)))
    assert mf.f == f3
    mf = literal(build_curve_alpha(CurvePoint.at_infinity(F, -W)))
    assert mf.phi[0, 2] == x(3)
    K = sextic_field()
    g = K.gen("g")
    literal(build_curve_alpha(CurvePoint.affine(K, 1, g)))  # b^3 = -2


# -- orientable 4x4 --------------------------------------------------------------

def test_phi_lambda_is_skew_with_pfaffian_f():
    lam = SurfacePoint(F, (0, 0, -1, 1))
    mf = literal(build("phi_lambda", lam=lam))
    assert mf.phi.is_skew() and mf.psi.is_skew()
    assert pfaffian(mf.phi) == f
    assert pfaffian(mf.psi) == f
    fs = point_forms(lam)
    assert mf.psi[0, 3] == fs.p1
    swapped = build("psi_lambda", lam=lam)
    assert swapped.phi == mf.psi


def test_phi_sigma_entries_and_beta_slot():
    sigma = SigmaPerm(2, 3, 4)
    r = Roots(-1, -1, W)
    mf = literal(sigma_build("phi_sigma", sigma, r))
    fs = building_blocks(F, sigma, *r)
    assert mf.phi[1, 3] == fs.w2
    assert mf.phi[1, 2] == -x(3) * x(4)  # the default slot x_j*x_s
    assert pfaffian(mf.phi) == f
    # the identity does not depend on the slot at all
    custom = literal(_slot_instance("phi_sigma", sigma, fs, x(1) * x(1)))
    assert pfaffian(custom.phi) == f


def test_orientable_4gen_sweep():
    for coords in ((0, 0, -1, 1), (-1, 0, 1, 0), (-W, 1, 0, 0)):
        lam = SurfacePoint(F, coords)
        literal(build("phi_lambda", lam=lam))
    for sigma, r in _root_sweep():
        literal(sigma_build("phi_sigma", sigma, r))


# -- non-orientable 4x4 ----------------------------------------------------------

def test_nonorientable_entry_oracles():
    sigma = SigmaPerm(2, 3, 4)
    r = Roots(-1, -1, W)
    fs = building_blocks(F, sigma, *r)
    mf = sigma_build("phi_t_sigma", sigma, r, t=1)
    assert mf.phi[0, 1] == fs.w1 == x(1) + x(4)
    mf = sigma_build("psi_t_sigma", sigma, r, t=3)
    assert mf.phi[0, 3] == x(4)  # x_s for sigma=(2,3,4)
    with pytest.raises(FamilyError, match=r"^t must be 1\.\.4, got 5$"):
        sigma_build("phi_t_sigma", sigma, r, t=5)
    with pytest.raises(FamilyError, match="unknown family name 'adj_t_sigma'"):
        sigma_build("adj_t_sigma", sigma, r, t=1)


def test_nonorientable_full_sweep_432():
    count = 0
    for sigma, r in _root_sweep():
        for t in (1, 2, 3, 4):
            for name in ("phi_t_sigma", "psi_t_sigma"):
                sigma_build(name, sigma, r, t=t)
                count += 1
    assert count == 432


# -- five-generated --------------------------------------------------------------

def test_5gen_entry_oracles():
    sigma = SigmaPerm(2, 3, 4)
    r = Roots(-1, -1, W)
    fs = building_blocks(F, sigma, *r)
    mf = sigma_build("rho", sigma, r)
    assert mf.phi[0, 3] == -x(3)  # -x_j
    mf = sigma_build("mu", sigma, r, normalized=False)
    assert mf.phi[4, 3] == fs.w2 * fs.v2pp
    for name in ("mubar", "nubar"):
        with pytest.raises(FamilyError,
                           match="^mubar has no un-normalized display$"):
            sigma_build(name, sigma, r, normalized=False)
    with pytest.raises(FamilyError):
        sigma_build("tau", sigma, r)


def test_5gen_normalized_sweep_162():
    count = 0
    for sigma, r in _root_sweep():
        for kind in ("rho", "mu", "mubar"):
            mf = sigma_build(kind, sigma, r)
            assert mf.size == 5
            count += 1
    assert count == 162


def test_5gen_unnormalized_sweep_108():
    count = 0
    for sigma, r in _root_sweep():
        for kind in ("rho", "mu"):
            literal(sigma_build(kind, sigma, r, normalized=False))
            count += 1
    assert count == 108


def test_omega_sign_correction_is_forced():
    # flipping the [3,2] entry back to the uncorrected sign must break the
    # product identity, in both variants, which is why ERRATA.md exists
    sigma = SigmaPerm(2, 3, 4)
    r = Roots(-1, -1, W)
    for normalized in (True, False):
        mf = sigma_build("rho", sigma, r, normalized=normalized)
        rows = [list(row) for row in mf.psi.entries]
        rows[2][1] = -rows[2][1]
        uncorrected = PolyMatrix(F, rows)
        with pytest.raises(MatrixError, match=r"^phi\*psi != f\*Id: "
                           r"\[0,1\] [^;]*; \[2,1\] [^;]*$"):
            verify_matrix_factorization(mf.phi, uncorrected, f)


# -- the 6x6 pencil --------------------------------------------------------------

def test_six_gen_at_gamma_zero():
    lam = CurvePoint.affine(F, 0, -1)
    M = build_six_gen(lam, GammaBlock.zero(F))
    assert M.is_skew()
    assert determinant(M) == f3 * f3
    assert pfaffian(M) == f3


def test_six_gen_restriction_and_skewness():
    lam = CurvePoint.affine(F, -W, 0)
    gamma = GammaBlock(F, tuple(range(1, 16)))
    M = build_six_gen(lam, gamma)
    assert M.is_skew()
    restricted = M.map_entries(lambda p: p.restrict(4, 0))
    assert restricted == build_six_gen(lam, GammaBlock.zero(F))
    assert M[0, 1] - restricted[0, 1] == gamma.a(1) * x(4)
    with pytest.raises(FamilyError):
        build_six_gen(CurvePoint.at_infinity(F, -1), gamma)


# the Gamma block that `moduli sample --lambda=0,-1 --seed 1` certifies
_CERTIFIED_PENCIL = ("six_gen:lam=0:-1:1,"
                     "gamma=3:2:-1:0:0:0:0:-w-1:0:0:1:w:1:-w:-w-1")


def test_a_six_gen_id_pairs_its_pencil_with_the_pfaffian_adjoint():
    fid = FamilyId.parse(F, _CERTIFIED_PENCIL)
    mf = literal(fid.build())
    assert mf.phi == build_six_gen(fid.params["lam"], fid.params["gamma"])
    assert mf.psi == pfaffian_adjoint(mf.phi)
    # at gamma = 0 the Pfaffian is f3: the pencil is no factorization of f
    bare = FamilyId.parse(F, "six_gen:lam=0:-1:1,gamma=" + ":".join(["0"] * 15))
    with pytest.raises(FamilyError) as err:
        bare.build()
    assert str(err.value) == "six_gen: Pf(Lambda) != f"


def test_gamma_block_layout():
    gamma = GammaBlock(F, tuple(range(1, 16)))
    G = gamma.matrix()
    assert G.is_skew()
    assert G[0, 1] == 1 and G[0, 2] == 2 and G[1, 2] == 3      # Gamma1
    assert G[3, 4] == 4 and G[3, 5] == 5 and G[4, 5] == 6      # Gamma3
    assert G[3, 0] == 7 and G[4, 0] == 10 and G[5, 2] == 15    # Gamma2
    assert G[0, 3] == -7  # -Gamma2^t
    assert any(gamma.values[0:3])                               # Gamma1 != 0
    assert not any(GammaBlock.zero(F).values[3:6])              # Gamma3 = 0
    with pytest.raises(FamilyError):
        GammaBlock(F, (1, 2, 3))


def test_transport_matrices_identity():
    U, V = transport_matrices(CurvePoint.affine(F, -W, 0))
    assert V == U.transpose()
    assert determinant(U).constant_term() != 0
    # a = 0 lands in the other chart and has its own display
    U0, V0 = transport_matrices(CurvePoint.affine(F, 0, -1))
    assert U0[0, 0] == -1  # -b^2 at b = -1
    with pytest.raises(FamilyError):
        transport_matrices(CurvePoint.at_infinity(F, -1))


def test_transport_on_a_self_dual_point():
    K = sextic_field()
    g = K.gen("g")
    lam = CurvePoint.affine(K, 1, g)
    U, V = transport_matrices(lam)
    alpha = build_curve_alpha(lam).phi
    assert U * alpha.transpose() == alpha * V


def test_chart_transport_carries_the_pencil():
    lam = CurvePoint.at_infinity(F, -1)
    U = chart_transport(lam)
    assert U.nrows == 6
    # deterministic: same input, same matrix
    assert chart_transport(lam) == U
    target = CurvePoint.affine(F, 0, lam.l1.inv())
    alpha = build_curve_alpha(lam).phi
    zero3 = PolyMatrix.zeros(F, 3)
    source = block([[zero3, -alpha.transpose()], [alpha, zero3]])
    assert U * source * U.transpose() == \
        build_six_gen(target, GammaBlock.zero(F))
    with pytest.raises(FamilyError):
        chart_transport(CurvePoint.affine(F, 0, -1))


# -- the five-points presentation ------------------------------------------------

def test_five_points_data():
    A, quadrics, points = five_points_example()
    assert A.nrows == 6 and A.is_skew()
    # row 1 carries the normalizing unit w^2/6; later rows are verbatim
    assert A[0, 1] == (W * W / F(6)) * parse(F, "(-3*w - 2)*x3 + (2*w - 1)*x4")
    assert A[2, 5] == parse(F, "(-6/7*w - 4/7)*x3 + x4")
    assert A[4, 5] == parse(F, "-x1 - w*x2")
    assert pfaffian(A) == fermat_cubic(F)
    assert determinant(A) == fermat_cubic(F) * fermat_cubic(F)
    assert len(quadrics) == 5 and len(points) == 5
    assert points[0].coords == tuple(F(c) for c in (-1, 0, 0, 1))
    for q in quadrics:
        assert q.is_homogeneous() == (True, 2)
        for p in points:
            assert q.eval(p.coords) == 0


# -- canonical ids ---------------------------------------------------------------

def test_family_id_round_trip_and_build():
    fid = FamilyId.parse(F, "phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w")
    assert str(fid) == "phi_t_sigma:t=1,sigma=234,a=-1,b=-w,u=w"
    assert FamilyId.parse(F, str(fid)) == fid
    mf = literal(fid.build())
    assert mf.size == 4
    literal(FamilyId.parse(F, "psi_lambda:lam=0:0:-1:1").build())
    literal(FamilyId.parse(F, "theta3:a=-1,b=-w,c=-w*w").build())
    rho = FamilyId.parse(F, "rho:sigma=234,a=-1,b=-1,u=w")
    omega = FamilyId.parse(F, "omega:sigma=234,a=-1,b=-1,u=w")
    assert omega.build().phi == rho.build().psi
    unnorm = FamilyId.parse(F, "mu:sigma=234,a=-1,b=-1,u=w,normalized=0")
    assert "normalized=0" in str(unnorm)
    literal(unnorm.build())


def test_family_id_errors():
    with pytest.raises(FamilyError):
        FamilyId.parse(F, "zeta9:a=-1")
    with pytest.raises(FamilyError):
        FamilyId.parse(F, "phi_t_sigma:t=1,sigma=234")  # missing roots
    with pytest.raises(FamilyError):
        FamilyId.parse(F, "phi_t_sigma:t=7,sigma=234,a=-1,b=-1,u=w")
    with pytest.raises(FamilyError):
        FamilyId.parse(F, "rho:sigma=234,a=-1,b=-1,u=w,extra=1")


# -- pinned displays -------------------------------------------------------------

def _display_lines():
    """One line per display: the 666 catalog ids, then for each of the 54
    (sigma, a, b, u) tuples every sigma builder."""
    def pair(mf):
        return "%s|%s" % (format_one_line(mf.phi), format_one_line(mf.psi))

    for catalog in ("rank2_3gen", "nonorientable_4gen", "nonorientable_5gen"):
        for fid in enumerate_classes(catalog).representatives:
            yield "%s|%s" % (fid, pair(fid.build()))
    for sigma, r in _root_sweep():
        tag = "%d%d%d|%s|%s|%s" % (sigma.i, sigma.j, sigma.s, r.a, r.b, r.u)
        for kind in ("phi_sigma", "psi_sigma"):
            mf = sigma_build(kind, sigma, r)
            yield "%s|%s|%s" % (kind, tag, pair(mf))
        for t in (1, 2, 3, 4):
            for kind in ("phi", "psi"):
                mf = sigma_build(kind + "_t_sigma", sigma, r, t=t)
                yield "%s_%d|%s|%s" % (kind, t, tag, pair(mf))
        for kind, normalized in (("rho", True), ("mu", True), ("mubar", True),
                                 ("rho", False), ("mu", False)):
            mf = sigma_build(kind, sigma, r, normalized=normalized)
            yield "%s%s|%s|%s" % (kind, "" if normalized else "1", tag,
                                  pair(mf))


def test_every_display_is_byte_identical():
    # golden sha256 over every entry of every catalog and sigma display:
    # any change to one printed entry shows up here
    lines = list(_display_lines())
    assert len(lines) == 666 + 54 * (2 + 8 + 5)
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == ("f7649c854a2476a2847d63db3dbc9b6a"
                      "304092205cdbe8a83289c1f6b5cf7349")


def _partner_and_lambda_lines():
    """One fid|phi|psi line per display the catalog digest leaves out:
    phi_lambda/psi_lambda at six surface points, the partner names omega,
    nu (normalized and not) and nubar over the 54 tuples, and curve_alpha
    at three curve points."""
    def line(fid):
        mf = fid.build()
        return "%s|%s|%s" % (fid, format_one_line(mf.phi),
                             format_one_line(mf.psi))

    for lam in ("-1:0:0:1", "0:-1:0:1", "-1:0:1:0", "0:-1:1:0", "-1:1:0:0",
                "-w:1:0:0"):
        for name in ("phi_lambda", "psi_lambda"):
            yield line(FamilyId.parse(F, "%s:lam=%s" % (name, lam)))
    for sigma, r in _root_sweep():
        for name, normalized in (("omega", True), ("omega", False),
                                 ("nu", True), ("nu", False),
                                 ("nubar", True)):
            params = {"sigma": sigma, "a": r.a, "b": r.b, "u": r.u}
            if not normalized:
                params["normalized"] = False
            yield line(FamilyId(F, name, params))
    for lam in ("0:-1:1", "-w:0:1", "-1:1:0"):
        yield line(FamilyId.parse(F, "curve_alpha:lam=%s" % lam))


def test_partner_and_lambda_displays_are_byte_identical():
    lines = list(_partner_and_lambda_lines())
    assert len(lines) == 12 + 54 * 5 + 3
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == ("c362af1af36e31a388ce2fff533305ea"
                      "760d92b72aa262215be2bb7eb4940117")


_ONE_ID_PER_NAME = (
    "alpha3:b=-1,c=-1,d=-1,eps=w",
    "beta3:b=-1,c=-1,d=-1,eps=w",
    "eta3:a=-1,b=-w,c=-w^2,eps=w",
    "theta3:a=-1,b=-w,c=-w^2",
    "curve_alpha:lam=0:-1:1",
    "phi_lambda:lam=0:0:-1:1",
    "psi_lambda:lam=0:0:-1:1",
    "phi_sigma:sigma=234,a=-1,b=-1,u=w",
    "psi_sigma:sigma=234,a=-1,b=-1,u=w",
    "phi_t_sigma:t=1,sigma=234,a=-1,b=-1,u=w",
    "psi_t_sigma:t=1,sigma=234,a=-1,b=-1,u=w",
    "rho:sigma=234,a=-1,b=-1,u=w",
    "omega:sigma=234,a=-1,b=-1,u=w",
    "mu:sigma=234,a=-1,b=-1,u=w",
    "nu:sigma=234,a=-1,b=-1,u=w",
    "mubar:sigma=234,a=-1,b=-1,u=w",
    "nubar:sigma=234,a=-1,b=-1,u=w",
    "omega:sigma=234,a=-1,b=-1,u=w,normalized=0",
    "nu:sigma=234,a=-1,b=-1,u=w,normalized=0",
)


def test_every_family_name_builds_a_certified_pair():
    ids = [FamilyId.parse(F, text)
           for text in _ONE_ID_PER_NAME + (_CERTIFIED_PENCIL,)]
    assert {fid.name for fid in ids} == set(_FAMILIES) | set(_PARTNERS)
    for fid in ids:
        mf = fid.build()
        assert isinstance(mf, MatrixFactorization)
        literal(mf)


def test_a_warm_build_makes_no_matrix_product(monkeypatch):
    # a slot row is proven once per process over its symbols, a 3x3 pair
    # by det(phi) = f and phi_lambda by Pf(phi) = f; a partner name swaps
    # the certified pair, so a warm build multiplies no matrices at all
    ids = [FamilyId.parse(F, text) for text in _ONE_ID_PER_NAME]
    assert {fid.name for fid in ids} == \
        (set(_FAMILIES) | set(_PARTNERS)) - {"six_gen"}
    for fid in ids:
        fid.build()  # warm: form sets, variables and row proofs are memoised
    products = []
    multiply = PolyMatrix.__mul__

    def counted(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(PolyMatrix, "__mul__", counted)
    counts = {}
    for fid in ids:
        del products[:]
        fid.build()
        counts[str(fid)] = len(products)
    assert counts == {str(fid): 0 for fid in ids}


def test_every_catalog_listing_passes_the_literal_product():
    # the builds certify without a product; the literal check phi*psi =
    # f*Id still runs on all 666 listings here
    count = 0
    for catalog in ("rank2_3gen", "nonorientable_4gen", "nonorientable_5gen"):
        for fid in enumerate_classes(catalog).representatives:
            literal(fid.build())
            count += 1
    assert count == 666


def test_a_flipped_display_entry_fails_its_row_proof(monkeypatch):
    # the row proof runs over the slot symbols, so a display with one entry
    # of the wrong sign fails it at once, with the residual printed in
    # W1, W2, V1', V1'', V2', V2'', X rather than in x1..x4
    from fermatmf import families

    def flipped(field, *slots):
        phi, psi = families._rho_5x5(field, *slots)
        rows = [list(row) for row in psi.entries]
        rows[2][1] = -rows[2][1]  # the [3,2] sign ERRATA.md corrects
        return phi, PolyMatrix(field, rows)

    display, slots, order = families._SLOT_ROWS["rho"]
    monkeypatch.setitem(families._SLOT_ROWS, "rho", (flipped, slots, order))
    sigma = SigmaPerm(2, 3, 4)
    r = Roots(-1, -1, W)
    with pytest.raises(FamilyError) as err:
        sigma_build("rho", sigma, r)
    assert str(err.value) == (
        "slot row rho fails phi*psi = (W1*V1 + W2*V2)*Id: "
        "[0,1] 2*W1*V2'*V2''; [2,1] -2*W1*V1''*V2''")
    # once the display is mended, rho proves again
    monkeypatch.setitem(families._SLOT_ROWS, "rho", (display, slots, order))
    literal(sigma_build("rho", sigma, r))
