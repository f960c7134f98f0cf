"""Independent oracles for cross-checking the library's fast paths.

Everything here is deliberately written against a different method than the
implementation under test: Fourier-Motzkin projection instead of double
description, Caratheodory subset enumeration instead of simplex, breakpoint
probing instead of the facet-ratio formula, exhaustive support-subset
search instead of the iterative Zariski scheme, and Gauss-Jordan
elimination over `Fraction` instead of the library's fraction-free integer
elimination.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from fanobalance.cones import contains
from fanobalance.intersection import DivisorClass, IntersectionTensor, eval_product
from fanobalance.invariants import VarietyModel
from fanobalance.linalg import QVector, dot, is_zero, vec_add, vec_scale


# --- Gauss-Jordan elimination over Fraction -----------------------------------

def _gauss_jordan(rows: list[list[Fraction]], n_cols: int) -> tuple[list[int], Fraction]:
    """Reduce rows in place to reduced echelon form over their first n_cols columns.

    Returns the pivot columns and the product of the pivots, negated once
    per row swap (the determinant when the rows form a nonsingular square).
    """
    pivots: list[int] = []
    factor = Fraction(1)
    for col in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            factor = -factor
        pv = rows[r][col]
        factor *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots, factor


def gj_rank(vectors) -> int:
    """Rank of the span of the vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[0])


def gj_determinant(matrix) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots, factor = _gauss_jordan(rows, len(rows))
    return factor if len(pivots) == len(rows) else Fraction(0)


def gj_solve(matrix, rhs) -> list[Fraction] | None:
    """Solve M x = b for square M; None when M is singular."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots, _ = _gauss_jordan(rows, n)
    if len(pivots) < n:
        return None
    return [rows[i][n] for i in range(n)]


def _primitive(v) -> QVector:
    """The positive multiple of v with coprime integer entries."""
    scale = 1
    for x in v:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, n)
    return tuple(Fraction(n // g) for n in ints) if g else tuple(v)


# --- Fourier-Motzkin dualization -------------------------------------------

def fourier_motzkin_facets(rays: list[QVector], rank: int) -> list[QVector]:
    """Inequality description of cone(rays) by eliminating the coefficients.

    Returns a (possibly redundant) list of inward normals lambda with
    cone(rays) = {x : lambda . x >= 0 for all lambda} intersected with the
    span of the rays; sound for membership cross-checks.
    """
    n = len(rays)
    rows: list[tuple[Fraction, ...]] = []
    # variables: lambda_1..lambda_n, x_1..x_rank; every row means ">= 0"
    for j in range(rank):
        row = [-rays[i][j] for i in range(n)]
        row += [Fraction(1 if k == j else 0) for k in range(rank)]
        rows.append(tuple(row))
        rows.append(tuple(-c for c in row))
    for i in range(n):
        row = [Fraction(1 if k == i else 0) for k in range(n)]
        row += [Fraction(0)] * rank
        rows.append(tuple(row))

    for var in range(n):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        keep = [r for r in rows if r[var] == 0]
        new_rows = {r for r in keep}
        for p, q in itertools.product(pos, neg):
            comb = tuple(-q[var] * pc + p[var] * qc for pc, qc in zip(p, q))
            if not is_zero(comb):
                new_rows.add(_primitive(comb))
        rows = list(new_rows)

    facets = []
    for r in rows:
        lam = tuple(r[n:])
        if not is_zero(lam):
            facets.append(_primitive(lam))
    return sorted(set(facets))


def fm_member(v: QVector, fm_rows: list[QVector], rays: list[QVector]) -> bool:
    if any(dot(lam, v) < 0 for lam in fm_rows):
        return False
    return gj_rank(rays) == gj_rank(list(rays) + [v])


# --- Caratheodory membership ------------------------------------------------

def _solve_columns(columns: list[QVector], target: QVector) -> list[Fraction] | None:
    """Solve sum_i c_i columns[i] = target for independent columns."""
    k = len(columns)
    rows = [[c[i] for c in columns] + [target[i]] for i in range(len(target))]
    pivots, _ = _gauss_jordan(rows, k)
    if len(pivots) < k:
        return None  # dependent columns; another subset will cover this
    if any(row[k] != 0 for row in rows[k:]):
        return None
    return [rows[i][k] for i in range(k)]


def caratheodory_member(v: QVector, rays: list[QVector]) -> bool:
    """Membership by enumerating independent generator subsets."""
    if is_zero(v):
        return True
    max_size = min(len(rays), gj_rank(rays))
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(rays, size):
            sol = _solve_columns(list(subset), v)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


# --- breakpoint enumeration for the threshold invariant ----------------------

def breakpoint_a_oracle(model: VarietyModel, cls: DivisorClass) -> Fraction:
    """Least t with t*L + K in the cone, using membership tests only.

    The minimum is attained at one of the facet breakpoints, so sorting the
    candidate ratios and probing each with contains() finds it exactly; the
    value is confirmed sharp by probing just below.
    """
    eff = model.eff_cone
    k = model.canonical.coords
    candidates = sorted({
        -dot(lam, k) / dot(lam, cls.coords)
        for lam in eff.facet_normals
        if dot(lam, cls.coords) > 0
    })
    for t in candidates:
        if contains(eff, vec_add(vec_scale(t, cls.coords), k)):
            below = t - Fraction(1, 10**6)
            assert not contains(eff, vec_add(vec_scale(below, cls.coords), k))
            return t
    raise AssertionError("no breakpoint admitted the adjoint class")


# --- exhaustive Zariski decomposition ----------------------------------------

def brute_zariski_positive(model: VarietyModel, d: DivisorClass,
                           curves: list[DivisorClass]) -> DivisorClass:
    """Positive part by searching every support subset.

    A subset is admissible when the orthogonality system solves with
    nonnegative coefficients, the positive-coefficient curves have a
    negative-definite Gram matrix, and the leftover part is nonnegative
    against every supplied curve.  The classical uniqueness theorem then
    forces every admissible subset to yield the same P, which is asserted.
    """
    def product(x: DivisorClass, y: DivisorClass) -> Fraction:
        return eval_product(model.tensor, [x, y])

    def negative_definite(idx: tuple[int, ...]) -> bool:
        gram = [[product(curves[i], curves[j]) for j in idx] for i in idx]
        for k in range(1, len(idx) + 1):
            minor = gj_determinant([row[:k] for row in gram[:k]])
            if (-1) ** k * minor <= 0:
                return False
        return True

    found: list[DivisorClass] = []
    indexes = range(len(curves))
    for size in range(len(curves) + 1):
        for subset in itertools.combinations(indexes, size):
            if subset:
                gram = [[product(curves[i], curves[j]) for j in subset] for i in subset]
                rhs = [product(d, curves[i]) for i in subset]
                sol = gj_solve(gram, rhs)
                if sol is None or any(c < 0 for c in sol):
                    continue
            else:
                sol = []
            active = tuple(i for i, c in zip(subset, sol) if c > 0)
            if not negative_definite(active):
                continue
            negative = DivisorClass(tuple(Fraction(0) for _ in range(model.rank)))
            for i, c in zip(subset, sol):
                negative = negative + c * curves[i]
            positive = d - negative
            if any(product(positive, c) < 0 for c in curves):
                continue
            found.append(positive)
    assert found, "no admissible decomposition found"
    first = found[0]
    for other in found[1:]:
        assert other.coords == first.coords, "ambiguous decomposition"
    return first


# --- random models ------------------------------------------------------------

def random_pointed_cone(rng, rank: int, n_rays: int):
    """Pointed cone: every ray has first coordinate >= 1."""
    from fanobalance.cones import cone_from_generators

    rays = []
    for _ in range(n_rays):
        ray = [Fraction(rng.randint(1, 4))]
        ray += [Fraction(rng.randint(-4, 4)) for _ in range(rank - 1)]
        rays.append(tuple(ray))
    return cone_from_generators(rays, rank), rays


def random_full_dim_pointed_cone(rng, rank: int, n_extra: int):
    """Pointed and full-dimensional (contains a shifted basis)."""
    from fanobalance.cones import cone_from_generators

    rays = []
    for j in range(rank):
        ray = [Fraction(3)] + [Fraction(0)] * (rank - 1)
        if j > 0:
            ray[j] = Fraction(rng.choice([-2, -1, 1, 2]))
        rays.append(tuple(ray))
    for _ in range(n_extra):
        ray = [Fraction(rng.randint(1, 4))]
        ray += [Fraction(rng.randint(-4, 4)) for _ in range(rank - 1)]
        rays.append(tuple(ray))
    return cone_from_generators(rays, rank), rays


def blown_up_plane_model(n_points: int) -> tuple[VarietyModel, list[tuple[DivisorClass, Fraction]]]:
    """Rational surface fixture: plane blown up in n general points.

    Basis (H, E_1, ..., E_n); negative curves are the exceptional classes
    and, for n >= 2, the lines through point pairs.  The effective cone is
    spanned by exactly these classes for n <= 4.
    """
    from fanobalance.cones import cone_from_generators

    assert 1 <= n_points <= 4
    rank = n_points + 1
    entries = {(0, 0): Fraction(1)}
    for i in range(1, rank):
        entries[(i, i)] = Fraction(-1)
    tensor = IntersectionTensor(2, rank, entries)
    canonical = DivisorClass(tuple([Fraction(-3)] + [Fraction(1)] * n_points))

    curves = []
    for i in range(1, rank):
        coords = [Fraction(0)] * rank
        coords[i] = Fraction(1)
        curves.append(DivisorClass(tuple(coords)))
    if n_points >= 2:
        for i, j in itertools.combinations(range(1, rank), 2):
            coords = [Fraction(1)] + [Fraction(0)] * n_points
            coords[i] = Fraction(-1)
            coords[j] = Fraction(-1)
            curves.append(DivisorClass(tuple(coords)))
    generators = [c.coords for c in curves]
    if n_points == 1:
        generators = [curves[0].coords, (Fraction(1), Fraction(-1))]  # E and the fiber H - E
    eff = cone_from_generators(generators, rank)
    identity = tuple(tuple(Fraction(1 if i == j else 0) for j in range(rank))
                     for i in range(rank))
    model = VarietyModel(
        name=f"plane-blowup-{n_points}",
        dim=2,
        rank=rank,
        canonical=canonical,
        eff_cone=eff,
        tensor=tensor,
        curve_pairing=identity,
    )
    negative = [(c, Fraction(-1)) for c in curves]
    return model, negative
