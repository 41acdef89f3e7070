"""Constant equivalence of presentation matrices.

A cokernel only sees its presentation matrix up to multiplication by
invertible matrices on either side, so matrices that are equivalent by
invertible constant U, V present isomorphic modules.
``scalar_equivalence`` decides that for two matrices.  Multiplication by
constants maps linear parts to linear parts, and ``linear_reduction``
keeps just those: when even the mod-m^2 reductions admit no constant
intertwiner, the original modules differ.  ``pairwise_distinctness``
sweeps a list of matrices this way, splitting most pairs by invariants of
their reductions first.  Verdicts are three-valued on purpose --
"inconclusive" is an honest answer and is never upgraded to a claim.
Verdicts and sweeps are plain records; the command line alone spells
them as reports.  Every witness is re-checked exactly, and a failed
internal check raises AssertionError: it is a fault here, not bad input.
"""

from __future__ import annotations

import itertools
import random

from .families import FamilyId, SigmaPerm
from .field import FermatmfError, _Frozen, omega_field, special_roots
from .matrix import (MatrixError, PolyMatrix, determinant, field_nullspace,
                     field_rref, minors)
from .poly import LINEAR_EXPS, Polynomial, grlex_key

# Solution spaces wider than this skip the symbolic determinant and fall
# back to seeded evaluation; see _decide_blocks.
_PARAM_LIMIT = 12
_WITNESS_VALUES = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6)
_SAMPLE_COUNT = 64
_SAMPLE_SEED = 271828
_SAMPLE_BOUND = 10 ** 6
# the column of each variable in a row of linear-form coefficients
_LINEAR_INDEX = {e: v for v, e in enumerate(LINEAR_EXPS)}


class EquivError(FermatmfError):
    """Raised for malformed inputs to the equivalence toolkit."""


# -- domain types ---------------------------------------------------------------

class EquivalenceVerdict(_Frozen):
    """Outcome of one decision, with the certifying constant matrices.

    ``witness`` is a tuple of constant matrices, (U, V) for an
    intertwining pair.  Witnesses are re-verified before the verdict is
    built, so holding one means the defining identity has been checked
    exactly.
    """

    OUTCOMES = ("equivalent_with_witness", "not_equivalent", "inconclusive")

    __slots__ = ("outcome", "witness", "method", "detail")

    def __init__(self, outcome, witness=None, method="", detail=""):
        if outcome not in self.OUTCOMES:
            raise EquivError("unknown outcome %r" % (outcome,))
        if (outcome == "equivalent_with_witness") != (witness is not None):
            raise EquivError("exactly the equivalent outcome carries a witness")
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "detail", detail)

    def __repr__(self):
        return "EquivalenceVerdict(%s, method=%s)" % (self.outcome, self.method)


class ClassReport(_Frozen):
    """A catalog enumeration or a sweep: how many were listed and what
    separates them.

    An enumeration holds its ids in ``representatives``.  A sweep holds
    none -- it keeps no reference to the matrices it compared -- so its
    ``count`` is the number of matrices it was given.  ``evidence``
    holds one record per compared pair, ``inconclusive`` the pairs the
    sweep could not prove distinct -- literal duplicates and
    reduced-equivalent pairs land there too, never in a distinctness
    claim.
    """

    __slots__ = ("catalog", "representatives", "count", "evidence",
                 "inconclusive")

    def __init__(self, catalog, count, representatives=(), evidence=(),
                 inconclusive=()):
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "representatives", tuple(representatives))
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "evidence", tuple(evidence))
        object.__setattr__(self, "inconclusive", tuple(inconclusive))

    def __repr__(self):
        return "ClassReport(%s, count=%d)" % (self.catalog, self.count)


# -- reduction ------------------------------------------------------------------

def linear_reduction(M):
    """Entrywise linear part: the mod-m^2 picture of a presentation matrix,
    a matrix of linear forms."""
    return M.map_entries(lambda p: p.linear_part())


# -- the decision engine --------------------------------------------------------

def _combine(field, basis, values):
    total = [field.zero()] * len(basis[0])
    for value, vec in zip(values, basis):
        if value:
            total = [t + value * c for t, c in zip(total, vec)]
    return total


def _block_matrix(field, vec, offset, size):
    return PolyMatrix(field, [[vec[offset + i * size + j] for j in range(size)]
                              for i in range(size)])


def _pin_parameters(field, factors):
    """One value per parameter keeping every factor nonzero.

    ``factors`` are polynomials in the k parameters of a solution space.
    Parameters are fixed one at a time, each by ``restrict`` to a
    candidate value.  Each factor is a determinant of a matrix whose
    entries are linear in the parameters, so its degree in any single
    parameter is at most the matrix size (6 at worst); two factors leave
    at most 12 bad values and the candidate list has 13.
    """
    current = list(factors)
    chosen = []
    for var in range(1, factors[0].nvars + 1):
        for raw in _WITNESS_VALUES:
            value = field(raw)
            attempt = [f.restrict(var, value) for f in current]
            if all(attempt):
                chosen.append(value)
                current = attempt
                break
        else:
            raise AssertionError("witness search exhausted its candidate values")
    return chosen


def _decide_blocks(A, B, basis):
    """Is there a solution of U*A = B*V with U and V both invertible?

    ``basis`` spans the solution space as flat coefficient vectors, U then
    V row-major.  Up to _PARAM_LIMIT parameters the answer is symbolic:
    U and V each become a ``PolyMatrix`` in k variables, the parameters,
    with linear entries, and its ``determinant`` (at most 6x6, so within
    that function's size and degree bounds) vanishes identically exactly
    when every solution has that block singular.
    Beyond that, 64 seeded draws look for a witness, and if all give a
    singular block the verdict is inconclusive (sampled_determinant): a
    sampled "no" proves nothing.  A witness is re-checked exactly before
    it is returned; a failed check is a fault of this module, not of its
    input, and raises AssertionError.
    """
    field = A.field
    m, n = A.nrows, A.ncols
    blocks = ((0, m), (m * m, n))
    k = len(basis)
    if k == 0:
        return EquivalenceVerdict(
            "not_equivalent", method="empty_solution_space",
            detail="only the zero solution intertwines the two matrices")
    if k <= _PARAM_LIMIT:
        params = [tuple(int(t == b) for t in range(k)) for b in range(k)]
        forms = [Polynomial(field, {params[b]: vec[cell]
                                    for b, vec in enumerate(basis)
                                    if vec[cell]}, k)
                 for cell in range(len(basis[0]))]
        factors = []
        for offset, size in blocks:
            det = determinant(_block_matrix(field, forms, offset, size))
            if not det:
                return EquivalenceVerdict(
                    "not_equivalent", method="determinant_polynomial",
                    detail="a block determinant vanishes identically on the "
                           "%d-parameter solution space" % k)
            factors.append(det)
        vec = _combine(field, basis, _pin_parameters(field, factors))
        method = "determinant_polynomial"
    else:
        rng = random.Random(_SAMPLE_SEED)
        for _ in range(_SAMPLE_COUNT):
            values = [field(rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND))
                      for _ in basis]
            vec = _combine(field, basis, values)
            if all(determinant(_block_matrix(field, vec, offset, size))
                   for offset, size in blocks):
                break
        else:
            return EquivalenceVerdict(
                "inconclusive", method="sampled_determinant",
                detail="%d-parameter solution space; %d seeded draws from "
                       "[-10^6, 10^6] all gave a singular block (degree of "
                       "the determinant product is at most %d)"
                       % (k, _SAMPLE_COUNT, 2 * max(m, n)))
        method = "sampled_witness"
    U, V = (_block_matrix(field, vec, offset, size) for offset, size in blocks)
    if not (determinant(U) and determinant(V) and U * A == B * V):
        raise AssertionError("internal witness check failed")
    return EquivalenceVerdict("equivalent_with_witness", witness=(U, V),
                              method=method)


def _coefficient_rows(equations):
    """The linear system on unknown constants that polynomial identities make.

    Each equation is a list of (column, Polynomial) pairs and stands for
    sum(unknown[column] * polynomial) = 0.  It holds exactly when every
    monomial's coefficient vanishes, so it gives one {column: coefficient}
    row per monomial in its support, in graded lex order, as
    ``field_rref`` takes them; pairs on the same column add up (a sum that
    cancels stays as a zero entry, which the echelon skips).  For an
    identity with right-hand side C, the pair (augmented column, C) fills
    the last column of the system [M | c].
    """
    rows = []
    for pairs in equations:
        cells = {}  # monomial -> {column: coefficient}
        for col, poly in pairs:
            for exps, c in poly.terms.items():
                cell = cells.setdefault(exps, {})
                cell[col] = cell[col] + c if col in cell else c
        rows.extend(cells[exps] for exps in sorted(cells, key=grlex_key))
    return rows


# -- scalar equivalence ---------------------------------------------------------

def _intertwiner_basis(A, B):
    """Basis of {(U, V) constant : U*A = B*V}, each vector holding U then V
    flattened row-major."""
    m, n = A.nrows, A.ncols
    nunknowns = m * m + n * n
    equations = [[(i * m + k, A.entries[k][j]) for k in range(m)]
                 + [(m * m + k * n + j, -B.entries[i][k]) for k in range(n)]
                 for i in range(m) for j in range(n)]
    rows = _coefficient_rows(equations)
    return field_nullspace(rows, A.field, nunknowns)


def scalar_equivalence(A, B):
    """Look for invertible constant U, V with U*A = B*V.

    Works on any two matrices of the same shape over the same field; on
    mod-m^2 reductions the verdict is the usual notion of equivalence of
    linear presentations.  A not_equivalent answer is exact, an equivalent
    answer always carries a re-checked witness pair, and a failed seeded
    search is inconclusive.
    """
    if A.field is not B.field:
        raise EquivError("matrices over different fields")
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        raise MatrixError("dimension mismatch: %dx%d vs %dx%d"
                          % (A.nrows, A.ncols, B.nrows, B.ncols))
    return _decide_blocks(A, B, _intertwiner_basis(A, B))


# -- catalogs -------------------------------------------------------------------

def enumerate_classes(catalog, field=None):
    """Representatives of one catalog, as canonical ids sorted by string.

    rank2_3gen folds the twist (b,c,d,eps) ~ (b*eps, c*eps, d*eps, eps^2)
    into one representative per orbit; the other catalogs take every
    parameter tuple at face value.  So the nonorientable_4gen count (432)
    is the number of listings, not of modules: phi_t at u and
    psi_(t+2 mod 4) at u^2, with the same sigma, a and b, present the
    same module, and the listings present 216 modules.  Acceptance
    criterion 04 (tests/test_acceptance.py) holds the constant witnesses.
    """
    if field is None:
        field = omega_field()
    roots = special_roots(field)
    minus = roots.roots_of_minus_one
    prim = roots.primitive_cube_roots
    ids = []
    if catalog == "rank2_3gen":
        for name in ("alpha3", "beta3"):
            seen = set()
            for b, c, d in itertools.product(minus, repeat=3):
                for eps in prim:
                    fid = FamilyId(field, name,
                                   {"b": b, "c": c, "d": d, "eps": eps})
                    twin = FamilyId(field, name,
                                    {"b": b * eps, "c": c * eps,
                                     "d": d * eps, "eps": eps * eps})
                    rep = min(fid, twin, key=str)
                    if str(rep) not in seen:
                        seen.add(str(rep))
                        ids.append(rep)
        for a, b, c in itertools.permutations(minus, 3):
            for eps in prim:
                ids.append(FamilyId(field, "eta3",
                                    {"a": a, "b": b, "c": c, "eps": eps}))
        for a, b, c in itertools.permutations(minus, 3):
            ids.append(FamilyId(field, "theta3", {"a": a, "b": b, "c": c}))
    elif catalog == "nonorientable_4gen":
        for name in ("phi_t_sigma", "psi_t_sigma"):
            for t in (1, 2, 3, 4):
                for sigma in SigmaPerm.all():
                    for a, b in itertools.product(minus, repeat=2):
                        for u in prim:
                            ids.append(FamilyId(field, name, {
                                "t": t, "sigma": sigma,
                                "a": a, "b": b, "u": u}))
    elif catalog == "nonorientable_5gen":
        for name in ("rho", "mu", "mubar"):
            for sigma in SigmaPerm.all():
                for a, b in itertools.product(minus, repeat=2):
                    for u in prim:
                        ids.append(FamilyId(field, name, {
                            "sigma": sigma, "a": a, "b": b, "u": u,
                            "normalized": True}))
    else:
        raise EquivError("unknown catalog %r" % (catalog,))
    ids.sort(key=str)
    return ClassReport(catalog, len(ids), ids)


def _reduction_key(M):
    """Invariants of constant equivalence, used to split pairs cheaply.

    Writing the reduction as sum_v x_v A_v, an equivalence U*A*V acts by
    A_v -> U*A_v*V, so the ranks of the horizontal stack [A_1 .. A_4] and
    of the vertical stack are invariant; and every k x k minor of U*A*V
    is a constant combination of k x k minors of A (Cauchy-Binet on both
    sides), so the coefficient span of the k-minors is invariant too.
    The key has a level for each k up to min(n, m) - 1.  All of it is
    read off the live block, the rows and columns of M that hold a
    nonzero entry: a zero row or column adds nothing to either stack
    rank, and every minor through it is zero, so a level above the live
    block's size is "zero".  The live block's minors come from one
    ``minors`` table, and each span is the nonzero rows of one
    ``field_rref``.  All of its rows are {column: coefficient} maps
    written from terms: a stack row from the entries' terms through
    their variable index, a minor's row from its terms through a
    monomial -> column index.
    """
    field = M.field
    size = min(M.nrows, M.ncols) - 1
    live_rows = [i for i, row in enumerate(M.entries) if any(row)]
    if not live_rows:
        return (0, 0, tuple((k, "zero") for k in range(1, size + 1)))
    live_cols = [j for j in range(M.ncols) if any(row[j] for row in M.entries)]
    M = M.submatrix(live_rows, live_cols)
    n, m = M.nrows, M.ncols
    horiz = [{} for _ in range(n)]  # row i of [A_1 .. A_4]
    vert = [[{} for _ in range(n)] for _ in range(4)]  # row i of A_v
    for i, row in enumerate(M.entries):
        for j, entry in enumerate(row):
            for e, c in entry.terms.items():
                v = _LINEAR_INDEX.get(e)
                if v is not None:
                    horiz[i][v * m + j] = c
                    vert[v][i][j] = c
    row_rank = len(field_rref(horiz, field, 4 * m)[1])
    col_rank = len(field_rref([row for A in vert for row in A], field, m)[1])
    levels = minors(M, min(size, n, m))
    zero = field.zero()
    spans = []
    for k in range(1, size + 1):
        polys = list(levels[k].values()) if k < len(levels) else []
        support = sorted({e for poly in polys for e in poly.terms},
                         key=grlex_key)
        if not support:
            spans.append((k, "zero"))
            continue
        column = {e: j for j, e in enumerate(support)}
        mat = [{column[e]: c for e, c in poly.terms.items()} for poly in polys]
        reduced, pivots = field_rref(mat, field, len(support))
        # most cells of the dense pivot rows are the shared zero: print
        # those as "0" without formatting them
        spans.append((k, tuple(support), pivots,
                      tuple(tuple("0" if c is zero else str(c)
                                  for c in reduced[row])
                            for row in range(len(pivots)))))
    return (row_rank, col_rank, tuple(spans))


def pairwise_distinctness(reps):
    """Evidence that the listed matrices present pairwise distinct modules.

    Only the sound direction is claimed: "not_equivalent" comes either
    from differing invariants of the reductions (stack ranks, minor
    coefficient spans -- the reduced_shape method) or from an exact
    scalar_equivalence verdict on the reductions.  On minimal input that
    rules out equivalence over k[[x]] (Eisenbud, Trans. AMS 260, 1980);
    a matrix with a unit entry is not minimal and raises EquivError.
    Pairs whose reductions turn out equivalent say nothing about the
    originals and are reported inconclusive, as are literal duplicates
    (identical_params).  The report is labelled "<n> matrices" and holds
    its count, evidence and inconclusive pairs, but no reference to
    ``reps``; the command line spells reports, this module returns
    records.
    """
    for M in reps:
        unit = (0,) * M.nvars
        if any(unit in entry.terms for row in M.entries for entry in row):
            raise EquivError("not a minimal matrix: an entry has a nonzero "
                             "constant term")
    tilde = [linear_reduction(M) for M in reps]
    group = {}
    gid = []
    for R in tilde:
        key = _reduction_key(R)
        gid.append(group.setdefault(key, len(group)))
    evidence = []
    inconclusive = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i] == reps[j]:
                record = {"pair": (i, j), "method": "identical_params",
                          "outcome": "inconclusive"}
                inconclusive.append((i, j))
            elif gid[i] != gid[j]:
                record = {"pair": (i, j), "method": "reduced_shape",
                          "outcome": "not_equivalent"}
            else:
                verdict = scalar_equivalence(tilde[i], tilde[j])
                if verdict.outcome == "not_equivalent":
                    record = {"pair": (i, j), "method": "scalar_test",
                              "outcome": "not_equivalent"}
                else:
                    # equivalent reductions decide nothing about the
                    # originals; never count the pair distinct
                    record = {"pair": (i, j), "method": "scalar_test",
                              "outcome": "inconclusive"}
                    inconclusive.append((i, j))
            evidence.append(record)
    return ClassReport("%d matrices" % len(reps), len(reps),
                       evidence=evidence, inconclusive=inconclusive)
