"""A seeded fuzzer for the matrix grammar behind ``det`` and ``pfaffian``.

Every input must end in exit status 0, or in exit status 2 with exactly one
``error:`` line and nothing on stdout; no input may raise.  The parser's and
the kernels' work bounds keep each run short, so the check needs no clock.
"""

import random

from fermatmf.cli import main

_SEED = 271828
_RANDOM_STRINGS = 120
_MATRICES = 80

# the grammar's alphabet: variables, the generator, numbers, operators and
# the matrix layout
_PIECES = ("x1", "x2", "x3", "x4", "w", "x", "0", "1", "2", "7", "1/3", "0/0",
           "-", "+", "*", "/", "^", "^2", "^3", "^12", "(", ")", " ", "\n",
           ",", ";")
# hostile pieces: deep nesting, runs of signs, non-ASCII digits and letters,
# overlong numbers, products of powers and odd layouts
_HOSTILE = (
    "(" * 3000 + "x1" + ")" * 3000,
    "x2*" + "-" * 5000 + "x1",
    "(x1*-" * 80 + "x2" + ")" * 80,
    "-" * 300, "+-" * 300, "--x1", "x1--x2",
    "٣", "１", "x1^²", "2²", "x٣", "é",
    "9" * 5000, "1/" + "7" * 5000, "x1^" + "9" * 40, "0" * 300,
    "x1^12*x2", "x1^6 x2^6 x3", "(x1+x2)^7*(x3+x4)^6", "(x1^2)^13",
    "(x1+x2)^12", "x1^2^3", "w^12*w^12",
    ";", ";;", ",,", "x1,;x2", ";x1, x2;", ", ;", "x1;" * 9,
)


def _expr(rng, depth=0):
    kind = rng.randrange(5 if depth < 2 else 2)
    if kind == 0:
        return rng.choice(("x1", "x2", "x3", "x4"))
    if kind == 1:
        return rng.choice(("0", "1", "-2", "w", "1/3", "w^2"))
    if kind == 2:
        return "%s + %s" % (_expr(rng, depth + 1), _expr(rng, depth + 1))
    if kind == 3:
        return "%s*%s" % (_expr(rng, depth + 1), _expr(rng, depth + 1))
    return "(%s)^%d" % (_expr(rng, depth + 1), rng.randint(0, 3))


def _matrix(rng):
    """A well-formed n x n matrix text, skew of even size half of the time."""
    if rng.random() < 0.5:
        n = rng.randint(1, 4)
        rows = [[_expr(rng) for _ in range(n)] for _ in range(n)]
    else:
        n = rng.choice((2, 4))
        rows = [["0"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = "(%s)" % _expr(rng)
                rows[j][i] = "-" + rows[i][j]
    return "; ".join(", ".join(row) for row in rows)


def _inputs():
    rng = random.Random(_SEED)
    texts = list(_HOSTILE)
    for _ in range(_RANDOM_STRINGS):
        parts = [rng.choice(_PIECES) for _ in range(rng.randint(1, 30))]
        if rng.random() < 0.2:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_HOSTILE))
        texts.append("".join(parts))
    for _ in range(_MATRICES):
        text = _matrix(rng)
        texts.append(text)
        # the same matrix with one piece spliced in
        at = rng.randrange(len(text) + 1)
        piece = rng.choice(_PIECES + _HOSTILE)
        texts.append(text[:at] + piece + text[at:])
    return texts


def test_det_and_pfaffian_exit_cleanly_on_fuzzed_input(capsys, stdin):
    codes = set()
    for text in _inputs():
        for command in ("det", "pfaffian"):
            stdin(text)
            code = main([command])
            out, err = capsys.readouterr()
            where = "%s on %r" % (command, text[:60])
            assert code in (0, 2), where
            if code == 0:
                assert out and not err, where
            else:
                assert not out, where
                assert err.startswith("error: ") and err.count("\n") == 1, \
                    where
            codes.add(code)
    assert codes == {0, 2}
