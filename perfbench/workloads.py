"""The three benchmark workloads: seeded inputs, the timed call per item,
and the known-answer check for every result.

Each workload object is built from the seed alone (that construction is the
benchmark's set-up), hands out an endless seeded stream of items, runs one
item per ``run`` call, and judges the results afterwards with ``check``,
which never runs inside a timed region.  The known answers come from
outside the code under test: the catalog sizes, the u-swap pairing read off
the id strings, and the defining identities of a moduli point, evaluated in
complex floating point at seeded integer points.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import itertools
import json
import random
import traceback

from fermatmf import cli
from fermatmf.equiv import enumerate_classes, pairwise_distinctness
from fermatmf.families import CurvePoint, FamilyId, GammaBlock
from fermatmf.field import omega_field, sextic_field
from fermatmf.moduli6 import (ModuliPoint, equation_values, gamma2_solve,
                              sample_moduli_point)
from fermatmf.poly import fermat_cubic

CATALOG_SIZES = {"rank2_3gen": 72, "nonorientable_4gen": 432,
                 "nonorientable_5gen": 162}

# sha256 of the stdout of `fermatmf verify --all --format json`: the
# byte-identical report that design changes must keep.
VERIFY_ALL_SHA256 = \
    "a9e620712b3dabaab45df71a81e9248a6d3b57eced3cc3fb2e6bf41df02a398e"


class Outcome:
    """What one item decided: ``decisions`` judged, ``inconclusive`` of
    them left open, the ``census`` keys it adds to the verdict census, and
    ``problems`` (known-answer breaks; any makes the item failed)."""

    def __init__(self, census, decisions=1, inconclusive=0, problems=()):
        self.census = census
        self.decisions = decisions
        self.inconclusive = inconclusive
        self.problems = list(problems)


def _capture_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


# -- catalog ---------------------------------------------------------------------

class Catalog:
    """`verify --family ID` over every id of the three catalogs, in seeded
    passes; one pass is `verify --all` split into its 666 calls.  The
    warm-up is one `verify --all` call, the first pass a fresh process
    pays; its report gives the census and the byte-identity digest."""

    census_items = 0

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.catalog_of = {}
        self.setup_problems = []
        self.all_report = None
        for name, size in CATALOG_SIZES.items():
            ids = [str(fid) for fid in enumerate_classes(name).representatives]
            if len(ids) != size:
                self.setup_problems.append(
                    "catalog %s has %d ids, expected %d" % (name, len(ids), size))
            self.catalog_of.update((fid, name) for fid in ids)
        self.ids = sorted(self.catalog_of)

    def warm_up(self):
        try:
            self.all_report = _capture_cli(["verify", "--all", "--format",
                                            "json"])
        except Exception:
            self.all_report = (None, traceback.format_exc(limit=4))

    def items(self):
        while True:
            order = list(self.ids)
            self.rng.shuffle(order)
            yield from order

    def run(self, fid):
        return _capture_cli(["verify", "--family", fid, "--format", "json"])

    def check(self, fid, result):
        status, text = result
        report = json.loads(text)
        checks = report["checks"]
        outcome = checks[0]["outcome"] if len(checks) == 1 else "malformed"
        problems = []
        if status != 0 or report["exit"] != 0:
            problems.append("%s: exit status %s" % (fid, status))
        if len(checks) != 1 or checks[0]["subject"] != fid \
                or checks[0]["check"] != "factorization":
            problems.append("%s: report does not describe the id" % fid)
        if outcome != "pass":
            problems.append("%s: outcome %s, every catalog id passes"
                            % (fid, outcome))
        return Outcome([("verify", self.catalog_of[fid], outcome)],
                       inconclusive=int(outcome == "inconclusive"),
                       problems=problems)

    def final_check(self):
        """The byte-identity check of the warm-up's `verify --all` report,
        and its census: one key per check, which must cover every id once
        and pass."""
        status, text = self.all_report
        if status is None:
            return {}, ["verify --all raised:\n" + text], ["verify --all error"]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        problems = [] if digest == VERIFY_ALL_SHA256 else [
            "verify --all digest %s, expected %s" % (digest, VERIFY_ALL_SHA256)]
        if status != 0:
            problems.append("verify --all: exit status %s" % status)
        checks = json.loads(text)["checks"]
        subjects = [check["subject"] for check in checks]
        if sorted(subjects) != self.ids:
            problems.append("verify --all does not check every catalog id once")
        census = [" ".join(("verify --all", self.catalog_of.get(s, "unknown"),
                            check["outcome"]))
                  for s, check in zip(subjects, checks)]
        problems.extend("verify --all: %s: outcome %s, every catalog id passes"
                        % (check["subject"], check["outcome"])
                        for check in checks if check["outcome"] != "pass")
        return {"verify_all_sha256": digest}, problems, census


# -- sweep -----------------------------------------------------------------------

# Cube roots of -1 are -w^k and primitive cube roots of unity are w^k; the
# id strings spell them as below, so parameters can be compared as
# exponents mod 3 without the field arithmetic under test.
_MINUS_ROOT_EXP = {"-1": 0, "-w": 1, "w+1": 2}
_PRIM_ROOT_EXP = {"w": 1, "-w-1": 2}
_PARTNER_T = {1: 3, 2: 4, 3: 1, 4: 2}

# The 432 four-generated matrices fall into 108 groups of four with equal
# reduction keys.  A group is a phi_t pair plus both u-swap partners; the
# phi_t pair shares t, sigma, the parameter named here, and the exponent
# combination (c_a, c_b, c_u) . (a, b, u) mod 3.  The rule was read off
# the reduction keys once and is checked against the catalog on set-up; it
# only selects inputs, so a finer key later changes the method mix, not
# the expected answers.
_GROUP_RULE = {1: ("a", (0, 1, 1)), 2: ("b", (1, 0, 2)),
               3: ("a", (0, 1, 2)), 4: ("b", (1, 0, 1))}

FIVE_BATCH = 3
_PATTERN = ("4gen", "5gen", "5gen")


def _id_params(fid):
    name, _, rest = fid.partition(":")
    params = dict(pair.split("=", 1) for pair in rest.split(","))
    params["name"] = name
    return params


def _as_phi(params):
    """(t, sigma, a, b, u) of the phi_t_sigma id a 4-gen id pairs with,
    as exponents: psi_t at u is the partner of phi_(t+2 mod 4) at u^2."""
    t = int(params["t"])
    u = _PRIM_ROOT_EXP[params["u"]]
    if params["name"] == "psi_t_sigma":
        t, u = _PARTNER_T[t], 2 * u % 3
    return (t, params["sigma"], _MINUS_ROOT_EXP[params["a"]],
            _MINUS_ROOT_EXP[params["b"]], u)


def is_u_swap_pair(left, right):
    """phi_t at u against psi_(t+2 mod 4) at u^2, same sigma, a and b."""
    p, q = _id_params(left), _id_params(right)
    if {p["name"], q["name"]} != {"phi_t_sigma", "psi_t_sigma"}:
        return False
    return _as_phi(p) == _as_phi(q)


def _group_key(fid):
    t, sigma, a, b, u = _as_phi(_id_params(fid))
    fixed, (ca, cb, cu) = _GROUP_RULE[t]
    return (t, sigma, a if fixed == "a" else b, (ca * a + cb * b + cu * u) % 3)


class Sweep:
    """pairwise_distinctness on seeded batches: a whole 4-gen key group,
    then two batches of three 5-gen ids, repeating."""

    census_items = 3

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.field = omega_field()
        self.setup_problems = []
        four = [str(fid) for fid in
                enumerate_classes("nonorientable_4gen").representatives]
        self.five = [str(fid) for fid in
                     enumerate_classes("nonorientable_5gen").representatives]
        groups = {}
        for fid in four:
            groups.setdefault(_group_key(fid), []).append(fid)
        self.groups = [groups[key] for key in sorted(groups)]
        pairs_per_group = {sum(is_u_swap_pair(x, y) for x, y in
                               itertools.combinations(group, 2))
                           for group in self.groups}
        if len(self.groups) != 108 or {len(g) for g in self.groups} != {4} \
                or pairs_per_group != {2}:
            self.setup_problems.append(
                "4-gen catalog does not split into 108 groups of four "
                "holding two u-swap pairs each")

    def items(self):
        while True:
            groups = list(self.groups)
            self.rng.shuffle(groups)
            for group in groups:
                for kind in _PATTERN:
                    if kind == "4gen":
                        batch = list(group)
                        self.rng.shuffle(batch)
                    else:
                        batch = self.rng.sample(self.five, FIVE_BATCH)
                    yield kind, tuple(batch)

    def run(self, item):
        _, batch = item
        mats = [FamilyId.parse(self.field, fid).build().phi for fid in batch]
        return pairwise_distinctness(mats)

    def check(self, item, report):
        kind, batch = item
        expected = {(i, j) for i, j in itertools.combinations(range(len(batch)), 2)
                    if is_u_swap_pair(batch[i], batch[j])}
        problems = []
        pairs = {tuple(record["pair"]) for record in report.evidence}
        if pairs != set(itertools.combinations(range(len(batch)), 2)):
            problems.append("%s: evidence does not cover every pair once"
                            % (batch,))
        if set(report.inconclusive) != expected:
            problems.append("%s: inconclusive pairs %s, expected the u-swap "
                            "pairs %s" % (batch, sorted(report.inconclusive),
                                          sorted(expected)))
        census = [(kind, record["method"], record["outcome"])
                  for record in report.evidence]
        return Outcome(census, decisions=len(report.evidence),
                       inconclusive=len(report.inconclusive),
                       problems=problems)


# -- moduli ----------------------------------------------------------------------

# Complex values of the tower generators, from their definitions: w^2 + w + 1
# = 0 and g^3 = -2.  Any embedding of the tower will do, because Pf = f and
# det = f^2 are identities over the field.  The moduli are the ascending
# coefficients the towers must have for these values to be roots.
_GENERATORS = {"w": (cmath.exp(2j * cmath.pi / 3), (1, 1, 1)),
               "g": (-2 ** (1 / 3), (2, 0, 0, 1))}
_ORACLE_POINTS = 3      # seeded integer points per returned sample
_ORACLE_TOL = 1e-9      # relative to the size of the numbers involved


def _embed(tower, value, level):
    """The complex value of a field value, one tower level at a time."""
    if level == 0:
        return complex(float(value))
    gen = _GENERATORS[tower.levels[level - 1][0]][0]
    return sum(_embed(tower, c, level - 1) * gen ** i
               for i, c in enumerate(value))


def _numeric(poly, x):
    tower = poly.field
    total = 0j
    for exps, coeff in poly.terms.items():
        term = _embed(tower, coeff.value, len(tower.levels))
        for xi, e in zip(x, exps):
            term *= xi ** e
        total += term
    return total


def _det(rows):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = [list(row) for row in rows]
    n, det = len(a), 1 + 0j
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(a[r][i]))
        if a[p][i] == 0:
            return 0j
        if p != i:
            a[i], a[p], det = a[p], a[i], -det
        det *= a[i][i]
        for r in range(i + 1, n):
            m = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= m * a[i][c]
    return det


def _pf(a, idx):
    """Pfaffian by expansion along the first of the indices ``idx``."""
    if not idx:
        return 1 + 0j
    first, rest = idx[0], idx[1:]
    return sum((-1) ** j * a[first][k] * _pf(a, rest[:j] + rest[j + 1:])
               for j, k in enumerate(rest))


def identity_breaks(mat, f, rng):
    """Which of skew, Pf = f and det = f^2 fail for a 6x6 matrix of linear
    forms, tested in complex floating point at seeded integer points with
    code independent of the package's field and matrix layers."""
    broken = set()
    n = mat.nrows
    for _ in range(_ORACLE_POINTS):
        x = [rng.randint(-5, 5) for _ in range(4)]
        a = [[_numeric(entry, x) for entry in row] for row in mat.entries]
        fx = _numeric(f, x)
        size = 1.0 + max(abs(v) for row in a for v in row) + abs(fx) ** (1 / 3)
        if any(abs(a[i][j] + a[j][i]) > _ORACLE_TOL * size
               for i in range(n) for j in range(n)):
            broken.add("skew")
        if abs(_pf(a, tuple(range(n))) - fx) > _ORACLE_TOL * size ** (n // 2):
            broken.add("Pf = f")
        if abs(_det(a) - fx * fx) > _ORACLE_TOL * size ** n:
            broken.add("det = f^2")
    return sorted(broken)


SAMPLE_BUDGET = 1000
_DRAW = 4


class Moduli:
    """Seeded moduli samples at [0:-1:1] and [-w:0:1], then one `moduli
    solve` path (gamma2_solve -> ModuliPoint -> equation_values) at a
    self-dual sextic point [1:g*w^k:1], repeating."""

    census_items = 12

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.setup_problems = []
        for tower in (omega_field(), sextic_field()):
            for name, modulus in tower.levels:
                if modulus != _GENERATORS[name][1]:
                    self.setup_problems.append(
                        "generator %s has modulus %s, the oracle expects %s"
                        % (name, modulus, _GENERATORS[name][1]))
        omega = omega_field()
        w = omega.gen("w")
        self.sample_points = (CurvePoint.affine(omega, 0, -1),
                              CurvePoint.affine(omega, -w, 0))
        sextic = sextic_field()
        g, ws = sextic.gen("g"), sextic.gen("w")
        self.solve_points = tuple(CurvePoint.affine(sextic, 1, g * ws ** k)
                                  for k in range(3))

    def items(self):
        for k in itertools.count():
            for lam in self.sample_points:
                yield "sample", lam, self.rng.randrange(1, 2 ** 31)
            free = tuple(self.rng.randint(-_DRAW, _DRAW) for _ in range(3))
            corners = tuple(self.rng.randint(-_DRAW, _DRAW) for _ in range(6))
            yield "solve", self.solve_points[k % 3], (free, corners)

    def run(self, item):
        kind, lam, arg = item
        if kind == "sample":
            return sample_moduli_point(lam, arg, SAMPLE_BUDGET)
        free, corners = arg
        solved = gamma2_solve(lam, free)
        gamma = GammaBlock(lam.field, corners + solved.values[6:])
        point = ModuliPoint(lam, gamma)
        return point, equation_values(lam, gamma)

    def check(self, item, result):
        kind, lam, seed = item
        if kind == "sample":
            if result is None:
                return Outcome([("sample", str(lam), "none")], inconclusive=1)
            point, values = result, equation_values(lam, result.gamma)
        else:
            point, values = result
        problems = []
        vanish = not any(values)
        if point.lam != lam:
            problems.append("%s: point over %s" % (lam, point.lam))
        if point.certified != vanish:
            problems.append("%s: certified=%s but the ten equations %s"
                            % (lam, point.certified,
                               "vanish" if vanish else "do not vanish"))
        if any(values[i] for i in (0, 1, 2, 3, 4, 7)):
            problems.append("%s: a linear equation of the solved block is "
                            "nonzero" % (lam,))
        if kind == "sample":
            if not point.certified:
                problems.append("%s: sample returned an uncertified point" % (lam,))
            broken = identity_breaks(point.matrix(), fermat_cubic(lam.field),
                                     random.Random(seed))
            if broken:
                problems.append("%s: returned point fails %s"
                                % (lam, ", ".join(broken)))
        label = "certified" if point.certified else "uncertified"
        return Outcome([(kind, str(lam), label)], problems=problems)


WORKLOADS = {"catalog": Catalog, "sweep": Sweep, "moduli": Moduli}
