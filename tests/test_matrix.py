import itertools
import random
from fractions import Fraction

import pytest

from fermatmf.field import omega_field, rationals, sextic_field
from fermatmf.matrix import (
    MatrixError,
    PolyMatrix,
    adjugate,
    block,
    determinant,
    field_nullspace,
    field_rref,
    format_matrix,
    minors,
    parse_matrix,
    pfaffian,
    pfaffian_adjoint,
    pfaffian_vector,
    slot_residuals,
    verify_matrix_factorization,
)
from fermatmf.poly import Polynomial, parse

F = omega_field()


def x(i):
    return Polynomial.variable(F, i)


def _random_entry(rng, degree=1):
    w = F.gen("w")
    p = Polynomial.zero(F)
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            exps[rng.randint(0, 3)] += 1
        coeff = F(rng.randint(-3, 3)) + F(rng.randint(-1, 1)) * w
        p = p + Polynomial(F, {tuple(exps): coeff})
    return p


def _random_skew(rng, n, degree=1):
    zero = Polynomial.zero(F)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = _random_entry(rng, degree)
            rows[i][j] = e
            rows[j][i] = -e
    return PolyMatrix(F, rows)


def _random_square(rng, n, degree=1):
    return PolyMatrix(F, [[_random_entry(rng, degree) for _ in range(n)]
                          for _ in range(n)])


def test_pfaffian_2x2_base_case():
    a = x(1) + 2 * x(2)
    M = PolyMatrix(F, [[0, a], [-a, 0]])
    assert pfaffian(M) == a


def test_pfaffian_generic_4x4():
    a12, a13, a14 = x(1), x(2), x(3)
    a23, a24, a34 = x(4), x(1) * x(2), Polynomial.constant(F, F.gen("w"))
    M = PolyMatrix(F, [
        [0, a12, a13, a14],
        [-a12, 0, a23, a24],
        [-a13, -a23, 0, a34],
        [-a14, -a24, -a34, 0],
    ])
    assert pfaffian(M) == a12 * a34 - a13 * a24 + a14 * a23


def test_pfaffian_preconditions():
    with pytest.raises(MatrixError):
        pfaffian(PolyMatrix(F, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))  # odd
    with pytest.raises(MatrixError):
        pfaffian(PolyMatrix(F, [[0, 1], [1, 0]]))  # not skew
    with pytest.raises(MatrixError):
        pfaffian_vector(PolyMatrix(F, [[0, 1], [-1, 0]]))  # even


def test_pfaffian_adjoint_2x2_sign():
    a = x(3)
    M = PolyMatrix(F, [[0, a], [-a, 0]])
    adj = pfaffian_adjoint(M)
    assert adj == PolyMatrix(F, [[0, -1], [1, 0]])
    assert M * adj == PolyMatrix.identity(F, 2, scale=pfaffian(M))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(101)
    for n in (2, 4, 6):
        for _ in range(8):
            M = _random_skew(rng, n)
            assert pfaffian(M) ** 2 == determinant(M)


def test_pfaffian_adjoint_identity_random():
    rng = random.Random(103)
    for n in (2, 4, 6):
        for _ in range(6):
            M = _random_skew(rng, n)
            adj = pfaffian_adjoint(M)
            expected = PolyMatrix.identity(F, n, scale=pfaffian(M))
            assert M * adj == expected
            assert adj * M == expected


def test_pfaffian_vector_block_support():
    rng = random.Random(107)
    inner = _random_skew(rng, 4)
    zero = Polynomial.zero(F)
    rows = [[zero] * 5 for _ in range(5)]
    for i in range(4):
        for j in range(4):
            rows[i + 1][j + 1] = inner.entries[i][j]
    d2 = PolyMatrix(F, rows)
    vec = pfaffian_vector(d2)
    assert vec[0] == pfaffian(inner)
    assert vec[1:] == [zero] * 4


def test_pfaffian_vector_annihilates():
    rng = random.Random(109)
    for _ in range(10):
        d2 = _random_skew(rng, 5)
        vec = pfaffian_vector(d2)
        row = PolyMatrix(F, [vec])
        assert row * d2 == PolyMatrix(F, [[0] * 5])


def test_determinant_scaled_identity():
    M = PolyMatrix.identity(F, 4, scale=x(1))
    assert determinant(M) == x(1) ** 4


def test_determinant_transpose_invariance():
    rng = random.Random(127)
    for n in (2, 3, 4):
        for _ in range(10):
            M = _random_square(rng, n)
            assert determinant(M.transpose()) == determinant(M)


def _random_linear_form(rng):
    w = F.gen("w")
    return sum((x(i) * (F(rng.randint(-2, 2)) + F(rng.randint(-1, 1)) * w)
                for i in range(1, 5)), Polynomial.zero(F))


def _leibniz(M):
    """det(M) as the sum over permutations, each sign read off the
    inversion count: an oracle that shares no code with the row
    expansion."""
    n = M.nrows
    total = Polynomial.zero(F)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = Polynomial.one(F)
        for i, j in enumerate(perm):
            term = term * M[i, j]
        total = total + (-term if inversions % 2 else term)
    return total


def test_minors_match_submatrix_determinants():
    rng = random.Random(139)
    for n, m in ((5, 5), (4, 5), (3, 5)):
        M = PolyMatrix(F, [[_random_linear_form(rng) for _ in range(m)]
                           for _ in range(n)])
        levels = minors(M, n)
        assert len(levels) == n + 1
        assert levels[0] == {((), ()): Polynomial.one(F)}
        for k in range(1, n + 1):
            assert list(levels[k]) == [
                (rows, cols) for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(m), k)]
            for (rows, cols), minor in levels[k].items():
                sub = M.submatrix(rows, cols)
                expected = _leibniz(sub)
                assert minor == expected
                assert determinant(sub) == expected
        with pytest.raises(MatrixError):
            minors(M, n + 1)


def test_adjugate_identity_and_oracle():
    assert adjugate(PolyMatrix.identity(F, 3)) == PolyMatrix.identity(F, 3)
    rng = random.Random(131)
    # the 100 seeded 4x4 cases are drawn first
    for n, count in ((4, 100), (1, 5), (2, 10), (3, 10), (5, 3)):
        for _ in range(count):
            M = _random_square(rng, n)
            d = determinant(M)
            expected = PolyMatrix.identity(F, n, scale=d)
            assert M * adjugate(M) == expected
            assert adjugate(M) * M == expected


def test_matrix_zero_entries_are_the_shared_zero():
    zero = Polynomial.zero(F)
    M = PolyMatrix(F, [[0, x(1) - x(1)], [Polynomial(F), x(2)]])
    assert M[0, 0] is M[0, 1] is M[1, 0] is zero
    assert M[1, 1] == x(2)


def test_block_assembly():
    alpha = _random_square(random.Random(137), 3)
    zero3 = PolyMatrix.zeros(F, 3)
    big = block([[zero3, -alpha.transpose()], [alpha, zero3]])
    assert big.nrows == big.ncols == 6
    assert big.submatrix(range(3, 6), range(3)) == alpha
    assert big.is_skew() == alpha.is_skew() is False or big.is_skew()
    with pytest.raises(MatrixError):
        block([[zero3, PolyMatrix.zeros(F, 2)]])


def test_matrix_products_and_transpose():
    M = PolyMatrix(F, [[x(1), x(2)], [0, x(3)]])
    assert PolyMatrix.identity(F, 2) * M == M
    assert M.transpose().transpose() == M
    N = M * M
    assert N[0, 0] == x(1) ** 2
    assert N[0, 1] == x(1) * x(2) + x(2) * x(3)


def test_verify_matrix_factorization_success_and_failure():
    # an honest 2x2 example: phi * adj(phi) = det(phi) Id
    phi = PolyMatrix(F, [[x(1), -x(2)], [x(2) ** 2, x(1) ** 2]])
    psi = adjugate(phi)
    d = determinant(phi)
    result = verify_matrix_factorization(phi, psi, d)
    assert (result.phi, result.psi, result.f) == (phi, psi, d)
    assert result.size == 2
    # now perturb one entry; the error names every residual entry, printed
    # in x1..x4 as slot_residuals prints them
    bad = PolyMatrix(F, [[x(1), -x(2)], [x(2) ** 2, x(1) ** 2 + x(3)]])
    with pytest.raises(MatrixError) as err:
        verify_matrix_factorization(bad, psi, d)
    assert str(err.value) == "phi*psi != f*Id: [1,0] -x2^2*x3; [1,1] x1*x3"
    # one product certifies only when f != 0: here phi*psi = 0 but psi*phi != 0
    one = Polynomial.constant(F, F(1))
    zero = Polynomial.zero(F)
    nil = PolyMatrix(F, [[zero, one], [zero, zero]])
    proj = PolyMatrix(F, [[one, zero], [zero, zero]])
    assert nil * proj == PolyMatrix.identity(F, 2, scale=zero)
    with pytest.raises(MatrixError):
        verify_matrix_factorization(nil, proj, zero)


def test_a_matrix_lives_in_the_ring_of_its_entries():
    # [[0, y], [z, 0]] in two variables: its zeros, products and
    # determinant stay in two variables
    y = Polynomial(F, {(1, 0): 1}, 2)
    z = Polynomial(F, {(0, 1): 1}, 2)
    M = PolyMatrix(F, [[0, y], [z, 0]])
    assert M.nvars == 2 and M[0, 0] == Polynomial.zero(F, 2)
    assert M * M == PolyMatrix.identity(F, 2, scale=y * z)
    assert determinant(M) == -(y * z)
    assert adjugate(M) == PolyMatrix(F, [[0, -y], [-z, 0]])
    assert PolyMatrix(F, [[0, 0], [0, 0]], nvars=2) == M - M
    assert PolyMatrix(F, [[1, 0]], nvars=2)[0, 0] == Polynomial.one(F, 2)
    assert PolyMatrix(F, [[1, 0]]).nvars == 4
    # entries in 2 and 4 variables do not make one matrix
    with pytest.raises(MatrixError):
        PolyMatrix(F, [[y, x(1)]])
    with pytest.raises(MatrixError):
        PolyMatrix(F, [[x(1)]], nvars=2)
    with pytest.raises(MatrixError):
        M * PolyMatrix.identity(F, 2)
    with pytest.raises(MatrixError):
        PolyMatrix.identity(F, 2, scale=y, nvars=4)


def test_map_entries_stays_in_the_ring_of_its_matrix():
    # mapping to scalars keeps the matrix's variables, not x1..x4
    ring = [Polynomial.variable(F, k, 7) for k in range(1, 8)]
    M = PolyMatrix(F, [[ring[0] + 2, ring[6] - 3]])
    constants = M.map_entries(lambda p: p.constant_term())
    assert constants.nvars == 7
    assert constants == PolyMatrix(F, [[2, -3]], nvars=7)
    assert constants.transpose() * M == PolyMatrix(F, [
        [2 * ring[0] + 4, 2 * ring[6] - 6],
        [-3 * ring[0] - 6, -3 * ring[6] + 9]])


def test_slot_residuals_print_in_the_slot_symbols():
    Q = rationals()
    a, b = (Polynomial(Q, {e: 1}, 2) for e in ((1, 0), (0, 1)))
    phi = PolyMatrix(Q, [[a, b], [0, a]])
    psi = PolyMatrix(Q, [[a, -b], [0, a]])
    assert slot_residuals(phi, psi, a * a, ("A", "B")) == []
    assert slot_residuals(phi, phi, a * a, ("A", "B")) == ["[0,1] 2*A*B"]


def test_matrix_text_round_trip():
    text = "x1, x2^2 + w; 0, -1/2*x3*x4"
    M = parse_matrix(F, text)
    assert M.nrows == 2 and M.ncols == 2
    assert M[0, 1] == x(2) ** 2 + F.gen("w")
    again = parse_matrix(F, format_matrix(M))
    assert again == M


def test_nonsquare_guards():
    M = PolyMatrix(F, [[x(1), x(2)]])
    with pytest.raises(MatrixError):
        determinant(M)
    with pytest.raises(MatrixError):
        adjugate(M)


def test_field_rref_hand_example():
    reduced, pivots = field_rref([[1, 2, 3], [2, 4, 8]], F)
    assert pivots == (0, 2)
    assert reduced == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))


def test_field_rref_of_a_tall_full_rank_system_is_the_identity():
    w = F.gen("w")
    rng = random.Random(149)
    rows = [[F(rng.randint(-3, 3)) + F(rng.randint(-1, 1)) * w
             for _ in range(3)] for _ in range(7)]
    reduced, pivots = field_rref(rows, F)
    assert pivots == (0, 1, 2)
    assert reduced == tuple(tuple(F(int(i == j)) for j in range(3))
                            for i in range(7))


def test_field_rref_ignores_the_order_of_the_rows():
    w = F.gen("w")
    rng = random.Random(151)
    basis = [[F(rng.randint(-3, 3)) + F(rng.randint(-1, 1)) * w
              for _ in range(6)] for _ in range(3)]
    rows = []
    for _ in range(8):
        coeffs = [F(rng.randint(-2, 2)) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), F(0))
                     for j in range(6)])
    reduced, pivots = field_rref(rows, F)
    assert len(pivots) == 3 and len(reduced) == 8
    assert all(not any(row) for row in reduced[3:])
    for _ in range(5):
        rng.shuffle(rows)
        assert field_rref(rows, F) == (reduced, pivots)


def _oracle_rref(rows, field, ncols):
    """Textbook dense Gauss-Jordan, column by column with row swaps."""
    mat = [[field(c) for c in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        inv = mat[r][col].inv()
        mat[r] = [c * inv for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return tuple(tuple(row) for row in mat), tuple(pivots)


def _random_scalar(field, rng):
    value = field(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
    for name in field.names:
        power = field.gen(name) ** rng.randint(1, 2)
        value = value + field(rng.randint(-2, 2)) * power
    return value


def _random_system(field, rng):
    """Dense rows of one seeded system, mixing the shapes that stress the
    echelon: sparse and dense rows, duplicates, rows that cancel to zero,
    zero rows and tall full-rank stacks."""
    ncols = rng.randint(1, 9)
    density = rng.choice((0.15, 0.4, 0.8, 1.0))
    rows = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and roll < 0.3:
            a, b = rng.sample(rows, 2)
            s, t = _random_scalar(field, rng), _random_scalar(field, rng)
            rows.append([s * p + t * q for p, q in zip(a, b)])
        elif roll < 0.38:
            rows.append([0] * ncols)
        else:
            rows.append([_random_scalar(field, rng) if rng.random() < density
                         else field(0) for _ in range(ncols)])
    if rng.random() < 0.2:
        rows += [[_random_scalar(field, rng) for _ in range(ncols)]
                 for _ in range(ncols + 3)]
    return rows, ncols


def _as_map(row, rng):
    # nonzero cells always, zero cells now and then as explicit entries
    return {j: c for j, c in enumerate(row) if c or rng.random() < 0.3}


@pytest.mark.parametrize("make_field, seed", [(rationals, 401),
                                              (omega_field, 402),
                                              (sextic_field, 403)])
def test_field_rref_matches_a_dense_oracle(make_field, seed):
    field = make_field()
    rng = random.Random(seed)
    for _ in range(60):
        rows, ncols = _random_system(field, rng)
        expected = _oracle_rref(rows, field, ncols)
        assert field_rref(rows, field) == expected
        assert field_rref(rows, field, ncols) == expected
        maps = [_as_map(row, rng) for row in rows]
        assert field_rref(maps, field, ncols) == expected


def test_field_rref_checks_map_rows():
    assert field_rref([{}, {2: F(0)}], F, 3) == (((F(0),) * 3,) * 2, ())
    with pytest.raises(MatrixError):
        field_rref([{0: 1, 3: 2}], F, 3)
    with pytest.raises(MatrixError):
        field_rref([{-1: 1}], F, 3)
    with pytest.raises(MatrixError):
        field_rref([{5: 0}], F, 3)
    with pytest.raises(MatrixError):
        field_rref([{0: 1}], F)
    with pytest.raises(MatrixError):
        field_rref([[1, 2], {0: 1}], F)


def test_field_nullspace_kills_the_rows():
    rows = [[1, 2, 3], [2, 4, 8]]
    basis = field_nullspace(rows, F, 3)
    assert len(basis) == 1
    assert basis[0] == (F(-2), F(1), F(0))
    w = F.gen("w")
    basis = field_nullspace([[F(1), w]], F, 2)
    assert basis == [(-w, F(1))]


def test_field_nullspace_empty_system_is_everything():
    assert field_nullspace([], F, 2) == [(F(1), F(0)), (F(0), F(1))]
    with pytest.raises(MatrixError):
        field_rref([], F)
