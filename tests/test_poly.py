import random
from fractions import Fraction

import pytest

import fermatmf.poly as poly
from fermatmf.field import FieldElement, TowerError, omega_field, sextic_field
from fermatmf.matrix import PolyMatrix, determinant, parse_matrix
from fermatmf.poly import (
    LINEAR_EXPS,
    ParseError,
    Polynomial,
    UnknownVariableError,
    fermat_cubic,
    fermat_cubic3,
    parse,
    parse_scalar,
)

F = omega_field()


def x(i):
    return Polynomial.variable(F, i)


def test_difference_of_cubes():
    x1, x4 = x(1), x(4)
    assert (x1 - x4) * (x1 ** 2 + x1 * x4 + x4 ** 2) == x1 ** 3 - x4 ** 3


def test_add_zero_and_neutral_elements():
    f = fermat_cubic(F)
    assert f + Polynomial.zero(F) == f
    assert f * 1 == f
    assert f - f == Polynomial.zero(F)
    assert not (f - f)


def test_the_zero_and_the_monomials_are_shared():
    assert Polynomial.zero(F) is Polynomial.zero(F)
    assert Polynomial.zero(F) is not Polynomial.zero(sextic_field())
    assert Polynomial.zero(F) == x(1) - x(1)
    for k in range(1, 5):
        (e,) = (F.gen("w") * x(k)).terms
        assert e is LINEAR_EXPS[k - 1]


def test_rings_with_other_numbers_of_variables_are_kept_apart():
    t = Polynomial(F, {(1, 0, 0, 0, 0): 1}, 5)
    assert t.nvars == 5 and x(1).nvars == 4
    for mix in (lambda: t + x(1), lambda: x(1) * t, lambda: t.restrict(1, x(1))):
        with pytest.raises(TowerError):
            mix()
    assert t != Polynomial(F, {(1, 0, 0, 0): 1})
    # scalars coerce into the polynomial's own ring
    assert (t + 2).nvars == 5
    assert (t - t + 2) == Polynomial.constant(F, 2, 5)
    assert Polynomial.zero(F, 5) is Polynomial.zero(F, 5)
    assert Polynomial.zero(F, 5) != Polynomial.zero(F)
    assert (t ** 0) == Polynomial.one(F, 5)
    with pytest.raises(ValueError):
        Polynomial(F, {(1, 0, 0, 0): 1}, 5)
    for bad in ((1, 0, 0, "a"), (None, 0, 0, 0), (1, -1, 0, 0)):
        with pytest.raises(ValueError, match="bad monomial"):
            Polynomial(F, {bad: 1})


def test_restrict_pins_the_parameters_of_a_determinant():
    # det of a 3x3 grid of linear forms in five parameters, as equiv builds
    # them; pinning the parameters one by one must agree with evaluation
    rng = random.Random(5)
    w = F.gen("w")
    units = [tuple(int(t == b) for t in range(5)) for b in range(5)]
    grid = [[Polynomial(F, {u: rng.randint(-2, 2) + rng.randint(-1, 1) * w
                            for u in units}, 5)
             for _ in range(3)] for _ in range(3)]
    det = determinant(PolyMatrix(F, grid, 5))
    assert det.is_homogeneous() == (True, 3)
    for _ in range(5):
        point = [F(rng.randint(-3, 3)) for _ in range(5)]
        pinned = det
        for var, value in enumerate(point, start=1):
            pinned = pinned.restrict(var, value)
            assert pinned.eval(point) == det.eval(point)
        assert pinned.is_constant()
        assert pinned.constant_term() == det.eval(point)


def test_sigma_splitting_identity():
    # w1*v1 + w2*v2 = f for the (2 3 4) permutation with a = b = -1
    w1 = parse(F, "x1+x4")
    v1 = parse(F, "x1^2-x1*x4+x4^2")
    w2 = parse(F, "x2+x3")
    v2 = parse(F, "x2^2-x2x3+x3^2")
    assert w1 * v1 + w2 * v2 == fermat_cubic(F)


def test_parse_fermat_cubic():
    assert parse(F, "x1^3+x2^3+x3^3+x4^3") == fermat_cubic(F)
    assert parse(F, "0") == Polynomial.zero(F)


def test_parse_errors():
    with pytest.raises(UnknownVariableError):
        parse(F, "x5")
    with pytest.raises(UnknownVariableError):
        parse(F, "y1")
    with pytest.raises(ParseError) as err:
        parse(F, "x1 + + x2")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse(F, "x1^")
    with pytest.raises(ParseError):
        parse(F, "(x1")
    with pytest.raises(ParseError):
        parse_scalar(F, "x1+1")
    # str.isdigit holds for a fullwidth 1, an Arabic-Indic 3 and a
    # superscript 2, but the grammar's digits are 0-9 alone
    for text, message in (
            ("\uff11", "unexpected '\uff11' (at position 0)"),
            ("x\u0663", "unknown variable 'x' (at position 0)"),
            ("x1^\u00b2", "expected a number (at position 3)"),
            ("2\u00b2", "unexpected '\u00b2' (at position 1)")):
        with pytest.raises(ParseError) as err:
            parse(F, text)
        assert str(err.value) == message


def test_powers_are_bounded_before_they_expand(monkeypatch):
    from fermatmf import poly

    assert parse(F, "x1^12") == x(1) ** 12
    assert parse(F, "(x1^2)^6") == x(1) ** 12
    assert parse(F, "(x1+x2)^3") == (x(1) + x(2)) ** 3
    assert parse_scalar(F, "w^12") == 1

    def no_expansion(*_):
        raise AssertionError("expansion started")

    monkeypatch.setattr(poly, "power", no_expansion)
    for text, position in (("x1^13", 3), ("(x1+x2+x3+x4)^60", 14),
                           ("(x1*x1)^7", 8), ("2^13", 2), ("x1 ^ 13", 5)):
        with pytest.raises(ParseError) as err:
            parse(F, text)
        assert err.value.position == position
        assert "total degree 12" in str(err.value)


def test_products_are_bounded_before_they_multiply(monkeypatch):
    assert parse(F, "x1^6*x2^6") == x(1) ** 6 * x(2) ** 6
    assert parse(F, "3*x1^12*w") == x(1) ** 12 * (3 * F.gen("w"))

    # no product of the parse may pass degree 12, not even the last one
    mul = Polynomial.__mul__

    def bounded(p, q):
        if isinstance(q, Polynomial):
            assert max(map(sum, p.terms), default=0) + \
                max(map(sum, q.terms), default=0) <= 12, "product expanded"
        return mul(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", bounded)
    for text, position in (("x1^12*x2", 6), ("x1^7 x2^6", 5),
                           ("x1*-x1^12", 3),
                           ("(x1+x2+x3+x4+1)^12*(x1+x2+x3+x4+1)^12", 19)):
        with pytest.raises(ParseError) as err:
            parse(F, text)
        assert err.value.position == position
        assert "product above total degree 12" in str(err.value)


def test_numbers_are_bounded_by_their_digit_count(int_digit_limit):
    # the parser counts the digits itself, so the bound holds with the
    # interpreter's own limit removed too
    assert parse(F, "9" * 4300) == int("9" * 4300)
    for text, position in (("x1 + " + "9" * 5000, 5), ("9" * 4301, 0),
                           ("1/" + "7" * 4301, 2)):
        with pytest.raises(ParseError) as err:
            parse(F, text)
        assert err.value.position == position
        assert "number too long" in str(err.value)


def test_products_and_powers_are_bounded_in_digits(int_digit_limit):
    nines = "9" * 4300
    assert parse(F, "x1*" + nines) == x(1) * int(nines)
    assert parse(F, "(" + "9" * 358 + ")^12") == int("9" * 358) ** 12
    sevens = "(1/" + "7" * 3000 + ")"
    for text, position, message in (
            ("9" * 3000 + "*" + "9" * 3000, 3001, "product above 4300 digits"),
            (sevens + "*" + sevens, 3005, "product above 4300 digits"),
            ("(" + "9" * 400 + ")^12", 403, "power above 4300 digits"),
            # each power is refused before it multiplies, so the nesting
            # stops at 2^(12^4) instead of computing 2^(12^8)
            ("(" * 8 + "2" + ")^12" * 8, 23, "power above 4300 digits")):
        with pytest.raises(ParseError) as err:
            parse(F, text)
        assert err.value.position == position
        assert message in str(err.value)


def test_one_term_budget_serves_every_cell_of_a_matrix(monkeypatch):
    monkeypatch.setattr(poly, "MAX_TERMS", 12)
    cube = "(x1+x2)^3"  # four terms
    assert parse(F, "+".join([cube] * 3)) == 3 * (x(1) + x(2)) ** 3
    with pytest.raises(ParseError) as err:
        parse(F, "+".join([cube] * 4))
    assert err.value.position == 38
    assert "products and powers above 12 terms" in str(err.value)
    # each cell alone is within the budget, the four cells are not
    assert parse_matrix(F, ", ".join([cube] * 3)).ncols == 3
    with pytest.raises(ParseError) as err:
        parse_matrix(F, "%s, %s; %s, %s" % ((cube,) * 4))
    assert "products and powers above 12 terms" in str(err.value)


def test_nesting_is_bounded_before_the_recursion_limit():
    assert parse(F, "(" * 100 + "x1" + ")" * 100) == x(1)
    assert parse(F, "x2*" + "-" * 100 + "x1") == x(1) * x(2)
    for text, position in (("(" * 101 + "x1" + ")" * 101, 100),
                           ("x2*" + "-" * 101 + "x1", 103),
                           # each group nests twice; the 101st level is
                           # the parenthesis of the 51st group
                           ("(x1*-" * 51 + "x2" + ")" * 51, 250)):
        with pytest.raises(ParseError) as err:
            parse(F, text)
        assert err.value.position == position
        assert "nesting deeper than 100" in str(err.value)


def test_chained_powers_are_refused():
    # x1^2^3 reads as (x1^2)^3 or x1^(2^3): the grammar takes neither
    with pytest.raises(ParseError) as err:
        parse(F, "x1^2^3")
    assert err.value.position == 4
    assert "chained powers" in str(err.value)
    assert parse(F, "(x1^2)^3") == x(1) ** 6
    # a sign inside a product does not make a chain legal
    with pytest.raises(ParseError) as err:
        parse(F, "x1*-x2^2^3")
    assert "chained powers" in str(err.value)


@pytest.mark.parametrize("text, expected", [
    ("x2*-x1^2", -x(1) ** 2 * x(2)),
    ("x1 - -x2^2", x(1) + x(2) ** 2),
    ("2*-x1^3", -2 * x(1) ** 3),
    ("--x1^2", x(1) ** 2),
    ("x2*(-x1)^2", x(1) ** 2 * x(2)),
], ids=["product", "difference", "scaled", "double_sign", "parenthesized"])
def test_a_sign_inside_a_product_negates_the_power(text, expected):
    # -x1^2 is -(x1^2) wherever the sign stands, as at the head of a sum
    assert parse(F, text) == expected


# single products, so that a sign between two of them starts the next term
_SUMMANDS = ("x1", "(x1+1)", "1", "x2^2", "3*x1*x2", "w*x3", "1/2",
             "(x1-x2)^2", "-x2^2", "2*x1")


def _sum_of_parts(signs, parts):
    total = -parse(F, parts[0]) if signs[0] == "-" else parse(F, parts[0])
    for sign, part in zip(signs[1:], parts[1:]):
        term = parse(F, part)
        total = total - term if sign == "-" else total + term
    return total


def test_a_sum_parses_to_the_sum_of_its_parts():
    # the parser adds up a sum in one table; it must give what Polynomial
    # addition gives, in the same term order, also where terms cancel
    cases = [("-+", ("(x1+1)", "x1")), ("-++", ("(x1+1)", "x1", "1")),
             ("+-+", ("x1", "x1", "x2")), ("+-", ("x2^2", "x2^2"))]
    rng = random.Random(2311)
    for _ in range(300):
        n = rng.randint(1, 8)
        cases.append(("".join(rng.choice("+-") for _ in range(n)),
                      tuple(rng.choice(_SUMMANDS) for _ in range(n))))
    for signs, parts in cases:
        text = "".join(" %s %s" % term for term in zip(signs, parts))
        parsed = parse(F, text)
        expected = _sum_of_parts(signs, parts)
        assert parsed == expected, text
        assert list(parsed.terms) == list(expected.terms), text
    assert not parse(F, "-(x1+1) + x1 + 1")
    assert parse(F, "x1 - x1 + x2") == x(2)


def test_an_overlong_number_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse(F, "x1 + " + "9" * 5000)
    assert err.value.position == 5
    assert "number too long" in str(err.value)


def test_parse_scalars_and_coefficients():
    w = F.gen("w")
    assert parse_scalar(F, "w") == w
    assert parse_scalar(F, "-1/2") == Fraction(-1, 2)
    assert parse_scalar(F, "(1+w)*(1+w)") == (1 + w) ** 2
    assert parse(F, "(w + 1)*x1") == x(1) * (w + 1)
    assert parse(F, "2x1") == 2 * x(1)  # implicit * after a number's factor
    G = sextic_field()
    assert parse_scalar(G, "g*g*w") == G.gen("g") ** 2 * G.gen("w")


def test_restrict_to_x4_zero():
    assert fermat_cubic(F).restrict(4, 0) == fermat_cubic3(F)
    assert x(1).restrict(4, 0) == x(1)
    # q3 at the surface point [0:0:-1:1]
    q3 = parse(F, "x3^2 - x3*x4 + x4^2")
    assert q3.restrict(4, 0) == x(3) ** 2


def test_restrict_is_a_ring_map():
    rng = random.Random(11)
    for _ in range(50):
        p = _random_poly(rng)
        q = _random_poly(rng)
        v = rng.randint(1, 4)
        c = rng.randint(-2, 2)
        assert (p * q).restrict(v, c) == p.restrict(v, c) * q.restrict(v, c)
        assert (p + q).restrict(v, c) == p.restrict(v, c) + q.restrict(v, c)


def test_restrict_substitutes_polynomials():
    p = x(1) ** 2 + x(2)
    assert p.restrict(2, x(3) * x(4)) == x(1) ** 2 + x(3) * x(4)


def test_linear_part():
    v1 = parse(F, "x1^2-x1*x4+x4^2")
    assert v1.linear_part() == Polynomial.zero(F)
    w1 = parse(F, "x1+x4")
    assert w1.linear_part() == w1
    assert (x(1) + x(1) * x(2)).linear_part() == x(1)
    assert parse(F, "3 + x2 + x3^2").linear_part() == x(2)


def test_linear_part_idempotent_additive():
    rng = random.Random(23)
    for _ in range(50):
        p, q = _random_poly(rng), _random_poly(rng)
        assert p.linear_part().linear_part() == p.linear_part()
        assert (p + q).linear_part() == p.linear_part() + q.linear_part()


def test_eval_at_surface_points():
    f = fermat_cubic(F)
    assert f.eval((1, 0, 0, -1)) == 0
    w = F.gen("w")
    quadric = x(2) * x(4) + x(3) * x(4) * w
    assert quadric.eval((1, 0, -1, 0)) == 0
    assert f.eval((1, 1, 1, 1)) == 4


def test_eval_needs_one_coordinate_per_variable():
    with pytest.raises(ValueError):
        x(4).eval((1, 2, 3))
    with pytest.raises(ValueError):
        (x(1) * x(4)).eval((1, 2, 3, 4, 5))
    t = Polynomial(F, {(1, 0): 1, (0, 2): 1}, nvars=2)
    assert t.eval((3, 2)) == 7
    with pytest.raises(ValueError):
        t.eval((3, 2, 1, 0))


def test_powers_square_only_while_bits_remain(monkeypatch):
    # x ** 1, x ** 2, x ** 3 cost 0, 1 and 2 products, for polynomials and
    # for field elements alike
    w = F.gen("w")
    for cls, base in ((Polynomial, x(1) + w * x(2)), (FieldElement, w + 2)):
        products = []
        multiply = cls.__mul__

        def counted(a, b, multiply=multiply, products=products):
            products.append(1)
            return multiply(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
        for n, cost in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
            products.clear()
            power = base ** n
            assert len(products) == cost
            expected = base
            for _ in range(n - 1):
                expected = multiply(expected, base)
            assert power == expected
        monkeypatch.undo()
    assert x(1) ** 0 == 1 and (w + 2) ** 0 == 1


def test_is_homogeneous():
    assert fermat_cubic(F).is_homogeneous() == (True, 3)
    assert (x(1) + x(2) ** 2).is_homogeneous() == (False, None)
    assert Polynomial.zero(F).is_homogeneous() == (True, None)


def test_print_parse_round_trip():
    rng = random.Random(31)
    G = sextic_field()
    for _ in range(200):
        p = _random_poly(rng, field=G)
        assert parse(G, str(p)) == p


def test_printing_follows_graded_lex():
    f = fermat_cubic(F)
    assert str(f) == "x1^3 + x2^3 + x3^3 + x4^3"
    p = x(4) + x(1) * x(2)
    assert str(p) == "x1*x2 + x4"
    w = F.gen("w")
    assert str((w + 1) * x(3)) == "(w + 1)*x3"
    assert str(-x(1) ** 2) == "-x1^2"
    assert str(Polynomial.zero(F)) == "0"


def test_field_mismatch_rejected():
    G = sextic_field()
    with pytest.raises(TowerError):
        fermat_cubic(F) + fermat_cubic(G)


def _random_poly(rng, field=F):
    gens = [field.one()] + [field.gen(n) for n in field.names]
    p = Polynomial.zero(field)
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        coeff = field(rng.randint(-3, 3)) * rng.choice(gens)
        p = p + Polynomial(field, {exps: coeff})
    return p
