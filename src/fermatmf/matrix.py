"""Dense small matrices over Polynomial: determinant, adjugate, Pfaffians,
and the matrix-factorization identity check, which returns the certified
pair or raises a MatrixError naming every residual entry.

Everything here is exact.  Sizes stay at 8 or below (``determinant`` and
``pfaffian`` refuse larger input), so determinants, minors and adjugates
share one memoized expansion of a minor along its last row (``_minor``),
and Pfaffians use the first-row expansion

    Pf(S) = sum over m >= 2 of (-1)^m * M[s1, sm] * Pf(S without s1, sm)

for an ordered index tuple S = (s1, ..., s2k), with Pf of the empty matrix
equal to 1.  This normalization gives Pf([[0, a], [-a, 0]]) = a and, on a
generic 4x4 skew matrix, a12*a34 - a13*a24 + a14*a23; the adjoint built from
(-1)^(i+j) * sgn(j-i) * Pf(M with rows and columns i, j deleted) then satisfies
M * adjoint = adjoint * M = Pf(M) * Id, which is the identity all callers rely
on.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations

from .field import FermatmfError, FieldElement, TowerError, _Frozen
from .poly import MAX_POWER_DEGREE, NVARS, Polynomial, TermBudget, parse

# the largest n for which determinant and pfaffian expand an n x n matrix;
# their memo tables hold 2^n entries
MAX_SIZE = 8


class MatrixError(FermatmfError):
    pass


class PolyMatrix(_Frozen):
    """An immutable rectangular matrix of polynomials over one field, all in
    one ring of ``nvars`` variables.

    ``nvars`` is read off the polynomial entries, and an entry in another
    number of variables is a MatrixError; a matrix of scalars alone lives
    in ``nvars`` variables, x1..x4 by default.
    """

    __slots__ = ("field", "nvars", "nrows", "ncols", "entries")

    def __init__(self, field, rows, nvars=None):
        if nvars is None:
            rows = [tuple(row) for row in rows]
            nvars = next((a.nvars for row in rows for a in row
                          if isinstance(a, Polynomial)), NVARS)
        entries = []
        width = None
        # every zero entry, a zero scalar included, is the ring's one
        # shared zero polynomial, which keeps the memory of long sweeps low
        zero = Polynomial.zero(field, nvars)
        for row in rows:
            coerced = []
            for entry in row:
                if isinstance(entry, Polynomial):
                    if entry.field is not field:
                        raise TowerError("matrix entries over different fields")
                    if entry.nvars != nvars:
                        raise MatrixError("matrix entries in %d and %d variables"
                                          % (nvars, entry.nvars))
                else:
                    entry = field(entry)
                    if entry:
                        entry = Polynomial.constant(field, entry, nvars)
                coerced.append(entry or zero)
            if width is None:
                width = len(coerced)
            elif len(coerced) != width:
                raise MatrixError("ragged rows")
            entries.append(tuple(coerced))
        if not entries or width == 0:
            raise MatrixError("empty matrix")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "nrows", len(entries))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "entries", tuple(entries))

    @classmethod
    def zeros(cls, field, n):
        """The n x n zero matrix in x1..x4."""
        zero = Polynomial.zero(field, NVARS)
        return cls(field, [[zero] * n for _ in range(n)], NVARS)

    @classmethod
    def identity(cls, field, n, scale=1, nvars=None):
        """scale*Id in ``nvars`` variables: by default those of a
        polynomial scale, else x1..x4."""
        if isinstance(scale, Polynomial):
            diag = scale
            nvars = scale.nvars if nvars is None else nvars
        else:
            nvars = NVARS if nvars is None else nvars
            diag = Polynomial.constant(field, field(1), nvars) * scale
        zero = Polynomial.zero(field, nvars)
        return cls(field, [[diag if i == j else zero for j in range(n)]
                           for i in range(n)], nvars)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.field is other.field and self.entries == other.entries)

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise MatrixError("dimension mismatch in addition")
        return PolyMatrix(self.field, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)], self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyMatrix(self.field, [[-a for a in row] for row in self.entries],
                          self.nvars)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise MatrixError("dimension mismatch in product")
            if self.nvars != other.nvars:
                raise MatrixError("matrices in %d and %d variables"
                                  % (self.nvars, other.nvars))
            zero = Polynomial.zero(self.field, self.nvars)
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = zero
                    for k in range(self.ncols):
                        a = self.entries[i][k]
                        if a:
                            acc = acc + a * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return PolyMatrix(self.field, out, self.nvars)
        if isinstance(other, (int, Fraction, FieldElement, Polynomial)):
            return PolyMatrix(self.field,
                              [[a * other for a in row] for row in self.entries],
                              self.nvars)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement, Polynomial)):
            return self * other
        return NotImplemented

    def transpose(self):
        return PolyMatrix(self.field, [
            [self.entries[i][j] for i in range(self.nrows)]
            for j in range(self.ncols)], self.nvars)

    def map_entries(self, fn):
        return PolyMatrix(self.field, [[fn(a) for a in row]
                                       for row in self.entries], self.nvars)

    def submatrix(self, rows, cols):
        return PolyMatrix(self.field, [
            [self.entries[i][j] for j in cols] for i in rows], self.nvars)

    def is_skew(self):
        if not self.is_square():
            return False
        for i in range(self.nrows):
            for j in range(i, self.ncols):
                if self.entries[i][j] != -self.entries[j][i]:
                    return False
        return True

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return "PolyMatrix(%d x %d)" % (self.nrows, self.ncols)


def block(grid):
    """Assemble a matrix from a 2-D grid of conformable PolyMatrix blocks."""
    if not grid or not grid[0]:
        raise MatrixError("empty block grid")
    field = grid[0][0].field
    rows = []
    for block_row in grid:
        height = block_row[0].nrows
        if any(b.nrows != height for b in block_row):
            raise MatrixError("block heights differ within a row")
        for i in range(height):
            row = []
            for b in block_row:
                row.extend(b.entries[i])
            rows.append(row)
    widths = {sum(b.ncols for b in block_row) for block_row in grid}
    if len(widths) != 1:
        raise MatrixError("block widths differ between rows")
    return PolyMatrix(field, rows)


def _require_small(M, what, halve=False):
    """Refuse M before expanding when its size is past MAX_SIZE or its
    result's degree may pass MAX_POWER_DEGREE, the parser's bound on one
    entry, so a few high-degree entries cannot ask for hours of products.
    The bound on deg det(M) is the sum of each row's largest entry degree,
    read in one pass over the terms; ``halve`` takes half of it, the bound
    on deg Pf(M)."""
    if max(M.nrows, M.ncols) > MAX_SIZE:
        raise MatrixError("%s of a %dx%d matrix: sizes stop at %dx%d"
                          % (what, M.nrows, M.ncols, MAX_SIZE, MAX_SIZE))
    degree = sum(max((sum(e) for a in row for e in a.terms), default=0)
                 for row in M.entries)
    if halve:
        degree //= 2
    if degree > MAX_POWER_DEGREE:
        raise MatrixError("%s of degree up to %d: degrees stop at %d"
                          % (what, degree, MAX_POWER_DEGREE))


def determinant(M):
    """Exact determinant of a square PolyMatrix of size at most MAX_SIZE."""
    _require_small(M, "determinant")
    if not M.is_square():
        raise MatrixError("determinant of a non-square matrix")
    return _minor(M, tuple(range(M.nrows)), tuple(range(M.ncols)), {})


def _minor(M, rows, cols, memo):
    """The minor of M on increasing row and column tuples, expanded along
    its last row with the sign (-1)^(k-1+p) at position p from 0, and kept
    in ``memo`` from size 2 up; a 1x1 minor is its entry, the 0x0 minor 1.
    Zero entries and zero sub-minors are skipped, and a sub-minor is read
    off the entries or the memo before it is expanded."""
    k = len(rows)
    if not k:
        return Polynomial.one(M.field, M.nvars)
    head, last = rows[:-1], M.entries[rows[-1]]
    if k == 1:
        return last[cols[0]]
    total = None
    for p, j in enumerate(cols):
        a = last[j]
        if not a:
            continue
        rest = cols[:p] + cols[p + 1:]
        sub = memo.get((head, rest)) if k > 2 else M.entries[head[0]][rest[0]]
        if sub is None:
            sub = _minor(M, head, rest, memo)
        if sub:
            term = a * sub if (k - 1 + p) % 2 == 0 else -(a * sub)
            total = term if total is None else total + term
    memo[rows, cols] = total = total or Polynomial.zero(M.field, M.nvars)
    return total


def minors(M, size):
    """Every k x k minor of M for k = 0 .. size, through one ``_minor`` memo.

    Returns ``levels``: ``levels[k]`` maps (row tuple, column tuple), both
    increasing, to the k x k minor, in the order of
    ``itertools.combinations`` on rows, then on columns.  The levels are
    filled from k = 0 up, so every sub-minor a k-minor needs is already in
    the memo and each minor is expanded once.
    """
    if not 0 <= size <= min(M.nrows, M.ncols):
        raise MatrixError("no %d x %d minors in a %d x %d matrix"
                          % (size, size, M.nrows, M.ncols))
    memo = {}
    return [{(rows, cols): _minor(M, rows, cols, memo)
             for rows in combinations(range(M.nrows), k)
             for cols in combinations(range(M.ncols), k)}
            for k in range(size + 1)]


def adjugate(M):
    """The matrix adj with M * adj = adj * M = det(M) * Id.

    adj[j][i] = (-1)^(i+j) * det(M without row i and column j); all n^2
    cofactors are expanded through one ``_minor`` memo.
    """
    if not M.is_square():
        raise MatrixError("adjugate of a non-square matrix")
    n = M.nrows
    memo = {}
    rest = [tuple(k for k in range(n) if k != i) for i in range(n)]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = _minor(M, rest[i], rest[j], memo)
            adj[j][i] = minor if (i + j) % 2 == 0 else -minor
    return PolyMatrix(M.field, adj, M.nvars)


def _require_skew(M, parity):
    if not M.is_square():
        raise MatrixError("Pfaffian calculus needs a square matrix")
    if M.nrows % 2 != parity:
        kind = "even" if parity == 0 else "odd"
        raise MatrixError("expected %s dimension, got %d" % (kind, M.nrows))
    if not M.is_skew():
        raise MatrixError("matrix is not skew-symmetric")


def _pf_recursive(M, indices, memo):
    if not indices:
        return Polynomial.one(M.field, M.nvars)
    value = memo.get(indices)
    if value is not None:
        return value
    zero = Polynomial.zero(M.field, M.nvars)
    s1 = indices[0]
    total = zero
    for p in range(1, len(indices)):
        a = M.entries[s1][indices[p]]
        if a:
            rest = indices[1:p] + indices[p + 1:]
            term = a * _pf_recursive(M, rest, memo)
            # position p of the partner is m = p + 1 in 1-based counting,
            # so the sign (-1)^m alternates starting from +
            total = total + (term if p % 2 == 1 else -term)
    memo[indices] = total
    return total


def pfaffian(M):
    """Pfaffian of an even skew matrix of size at most MAX_SIZE; Pf(M)^2 =
    det(M)."""
    _require_small(M, "Pfaffian", halve=True)
    _require_skew(M, 0)
    return _pf_recursive(M, tuple(range(M.nrows)), {})


def pfaffian_adjoint(M):
    """The skew analogue of the adjugate: M * out = out * M = Pf(M) * Id."""
    _require_skew(M, 0)
    n = M.nrows
    memo = {}
    zero = Polynomial.zero(M.field, M.nvars)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rest = tuple(k for k in range(n) if k != i and k != j)
            sub = _pf_recursive(M, rest, memo)
            if (i + j) % 2 == 1:
                sub = -sub
            if j < i:
                sub = -sub
            out[i][j] = sub
    return PolyMatrix(M.field, out, M.nvars)


def pfaffian_vector(d2):
    """Alternating principal Pfaffians of an odd skew matrix.

    Entry i is (-1)^i * Pf(d2 with row and column i deleted); the output row
    annihilates d2 on either side.
    """
    _require_skew(d2, 1)
    n = d2.nrows
    memo = {}
    out = []
    for i in range(n):
        rest = tuple(k for k in range(n) if k != i)
        sub = _pf_recursive(d2, rest, memo)
        out.append(sub if i % 2 == 0 else -sub)
    return out


class MatrixFactorization(_Frozen):
    """A pair (phi, psi) with phi*psi = psi*phi = f*Id.

    The type itself checks nothing: whoever builds one has certified the
    pair, by one of the literal product phi*psi
    (``verify_matrix_factorization``); the generic identity of a slot row
    (``slot_residuals``) with a form set that fills the row; det(phi) = f
    when psi is ``adjugate(phi)`` (the 3x3 families); or Pf(phi) = f when
    psi is ``pfaffian_adjoint(phi)`` (phi_lambda and the six_gen pencil)."""

    __slots__ = ("phi", "psi", "f")

    def __init__(self, phi, psi, f):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "f", f)

    @property
    def size(self):
        return self.phi.nrows

    def swapped(self):
        """The partner pair (psi, phi), with no second product: phi*psi =
        f*Id already implies psi*phi = f*Id."""
        return MatrixFactorization(self.psi, self.phi, self.f)

    def __repr__(self):
        return "MatrixFactorization(n=%d)" % self.size


def slot_residuals(phi, psi, f, symbols=None):
    """The nonzero entries of phi*psi - f*Id, each printed as "[i,j]
    residual" in ``symbols``, one name per variable (x1, x2, ... by
    default); an empty list proves phi*psi = f*Id.

    For a display filled with slot symbols, phi, psi and f are polynomials
    in one variable per symbol.  The identity then holds for every
    instance of the display: a ring map that sends the symbols to a
    listing's forms sends it to the listing's phi*psi = f*Id.
    """
    if not (phi.is_square() and psi.is_square()) or phi.nrows != psi.nrows:
        raise MatrixError("factors must be square of equal size")
    if phi.field is not psi.field or (isinstance(f, Polynomial) and f.field is not phi.field):
        raise TowerError("factors over different fields")
    if not f:
        raise MatrixError("a matrix factorization of 0 is not certified by "
                          "one product")
    n = phi.nrows
    diff = phi * psi - PolyMatrix.identity(phi.field, n, scale=f,
                                           nvars=phi.nvars)
    return ["[%d,%d] %s" % (i, j, diff.entries[i][j].format(symbols))
            for i in range(n) for j in range(n) if diff.entries[i][j]]


def verify_matrix_factorization(phi, psi, f):
    """Check phi*psi = psi*phi = f*Id exactly, by computing phi*psi alone.

    For square factors and f != 0, phi*psi = f*Id gives det(phi)*det(psi)
    = f^n != 0, so psi = f*phi^-1 over the fraction field and psi*phi =
    f*Id follows.  f = 0 is refused, since there the implication fails
    (phi = [[0,1],[0,0]], psi = [[1,0],[0,0]]).

    Returns the MatrixFactorization, or raises MatrixError listing every
    nonzero entry of phi*psi - f*Id.
    """
    residuals = slot_residuals(phi, psi, f)
    if residuals:
        raise MatrixError("phi*psi != f*Id: %s" % "; ".join(residuals))
    return MatrixFactorization(phi, psi, f)


# -- exact linear algebra over the coefficient field ---------------------------

def _subtract_multiple(row, factor, prow):
    """row -= factor * prow in place, on {column: coefficient} rows that
    never store a zero; each cell costs one fused multiply-add."""
    factor = -factor
    for j, p in prow.items():
        c = row.get(j)
        if c is None:
            row[j] = factor * p
        else:
            c = c.add_product(factor, p)
            if c:
                row[j] = c
            else:
                del row[j]


def field_rref(rows, field, ncols=None):
    """Reduced row echelon form of a matrix of field constants.

    Each row is a sequence of ``ncols`` cells or a ``{column: coefficient}``
    map; a map row needs ``ncols``, and a sequence row fixes it when it is
    not given.  Cells are FieldElements, ints or Fractions, and only the
    nonzero ones are coerced; an element of ``field`` is kept as it is.
    Returns ``(reduced rows, pivot columns)``: the nonzero reduced rows in
    pivot order as dense tuples, then zero rows, one output row per input
    row.

    The echelon is sparse and grows a row at a time (Gauss-Jordan): every
    row is a {column: coefficient} map that never holds a zero.  An input
    row is reduced only by the pivot rows whose column it holds; its new
    pivot column is then cleared from the pivot rows that hold it.  The
    pivot rows stay fully reduced, so fill-in lands only in free columns.
    Zero rows are only counted, and the others go in sparsest first: the
    reduced echelon form of a row space is unique, so the order changes
    the work, not the result.  At full column rank every later row
    reduces to zero, and the loop stops.
    """
    sparse = []
    nrows = 0
    width = ncols
    in_range = None if ncols is None else range(ncols).__contains__
    for row in rows:
        nrows += 1
        if isinstance(row, Mapping):
            if in_range is None:
                raise MatrixError("map rows need ncols")
            if not all(map(in_range, row)):
                raise MatrixError("map row has a column outside range(%d)"
                                  % ncols)
            cells = row.items()
        else:
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MatrixError("ragged rows")
            cells = enumerate(row)
        entries = {j: c if type(c) is FieldElement and c.field is field
                   else field(c) for j, c in cells if c}
        if entries:
            sparse.append(entries)
    if width is None:
        raise MatrixError("ncols is required for an empty system")
    ncols = width
    sparse.sort(key=len)
    echelon = {}  # pivot column -> its reduced row, pivot coefficient 1
    for row in sparse:
        if len(echelon) == ncols:
            break
        for col in [j for j in row if j in echelon]:
            _subtract_multiple(row, row[col], echelon[col])
        if not row:
            continue
        lead = min(row)
        scale = row[lead].inv()
        row = {j: scale * c for j, c in row.items()}
        for prow in echelon.values():
            factor = prow.get(lead)
            if factor is not None:
                _subtract_multiple(prow, factor, row)
        echelon[lead] = row
    pivots = tuple(sorted(echelon))
    zero = field(0)
    reduced = []
    for col in pivots:
        dense = [zero] * ncols
        for j, c in echelon[col].items():
            dense[j] = c
        reduced.append(tuple(dense))
    reduced += [(zero,) * ncols] * (nrows - len(pivots))
    return tuple(reduced), pivots


def field_nullspace(rows, field, ncols):
    """Basis of the right kernel of a constant matrix, one vector per free
    column of the reduced form.

    ``rows`` takes either form ``field_rref`` does.  Each basis vector is
    read off the pivot rows of one ``field_rref`` call: 1 at its free
    column and minus that column of the pivot rows at the pivots.
    """
    reduced, pivots = field_rref(rows, field, ncols)
    zero = field(0)
    one = field(1)
    basis = []
    pivot_set = set(pivots)
    for free_col in range(ncols):
        if free_col in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free_col] = one
        for row_idx, pivot_col in enumerate(pivots):
            c = reduced[row_idx][free_col]
            if c:
                vec[pivot_col] = -c
        basis.append(tuple(vec))
    return basis


# -- text format ---------------------------------------------------------------

def parse_matrix(field, text):
    """Rows separated by ';', entries by ',', entries in the polynomial
    grammar; the cells share one TermBudget."""
    budget = TermBudget()
    rows = []
    for row_text in text.split(";"):
        if not row_text.strip():
            continue
        rows.append([parse(field, cell, budget)
                     for cell in row_text.split(",")])
    if not rows:
        raise MatrixError("no rows in matrix text")
    return PolyMatrix(field, rows)


def format_matrix(M):
    return ";\n".join(", ".join(str(a) for a in row) for row in M.entries)


def format_one_line(M):
    """format_matrix on a single line, as the JSON reports print it."""
    return format_matrix(M).replace("\n", " ")
