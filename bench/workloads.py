"""The three workloads of the fanobalance benchmark.

A workload has a ``name``; a ``cycle``, the length of its repeating mix of
operation kinds; a ``build(fb, seed)`` that makes its fixed inputs
once (``setup_s`` times this together with the package import); a
``reference_check(fb, state)`` run once, untimed, before the measurement;
and an ``operations(fb, state, seed)`` generator that yields an endless,
seed-determined sequence of :class:`Op`.  Inputs of single operations are
drawn inside that generator, outside both ``setup_s`` and the operation's
own timing.

Every answer is checked with the exact arithmetic in this file, never with
the package's own linear algebra, so a defect in the code under test cannot
vouch for itself.  ``fb`` is a namespace of the package modules; calls go
through module attributes (``fb.cones.contains``) so that the traced run,
which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import expected


@dataclass(frozen=True)
class Op:
    """One timed call (``run``) and the untimed check of its answer."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# --- exact arithmetic independent of fanobalance.linalg ---------------------

def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _rref(vectors) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of the vectors as rows, and its pivot columns."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def _rank(vectors) -> int:
    return len(_rref(vectors)[1])


def _annihilator(vectors) -> list[tuple]:
    """A basis of the vectors y with v . y = 0 for every given v."""
    rows, pivots = _rref(vectors)
    basis = []
    for free in (c for c in range(len(vectors[0])) if c not in pivots):
        y = [Fraction(0)] * len(vectors[0])
        y[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            y[col] = -row[free]
        basis.append(tuple(y))
    return basis


def _combine(coeffs, vectors) -> tuple:
    return tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
                 for i in range(len(vectors[0])))


def _positive_multiple(g, r) -> bool:
    lead = next(i for i, x in enumerate(r) if x != 0)
    scale = Fraction(g[lead]) / r[lead]
    return scale > 0 and all(a == scale * b for a, b in zip(g, r))


def _vec(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


# --- seeded cone families ---------------------------------------------------

def random_rays(rng: random.Random, rank: int, n: int) -> list[tuple]:
    """Rays with first coordinate in 1..4 and the rest in -4..4; pointed."""
    return [_vec([rng.randint(1, 4)] + [rng.randint(-4, 4) for _ in range(rank - 1)])
            for _ in range(n)]


def full_dim_rays(rng: random.Random, rank: int, n_extra: int) -> list[tuple]:
    """A shifted basis plus random rays: pointed and full-dimensional."""
    rays = []
    for j in range(rank):
        ray = [3] + [0] * (rank - 1)
        if j:
            ray[j] = rng.choice([-2, -1, 1, 2])
        rays.append(_vec(ray))
    return rays + random_rays(rng, rank, n_extra)


def _independent(rng: random.Random, count: int, length: int, first_zero: bool) -> list[list[int]]:
    while True:
        vs = [[0 if first_zero and i == 0 else rng.randint(-2, 2) for i in range(length)]
              for _ in range(count)]
        if _rank(vs) == count:
            return vs


def lowdim_rays(rng: random.Random, rank: int, dim: int, n: int) -> list[tuple]:
    """Pointed rays spanning a ``dim``-dimensional subspace of Q^rank."""
    columns = _independent(rng, dim, rank, first_zero=False)
    return [tuple(sum((x[j] * columns[j][i] for j in range(dim)), Fraction(0))
                  for i in range(rank))
            for x in random_rays(rng, dim, n)]


def nonpointed_rays(rng: random.Random, rank: int, n: int, lineality: int) -> list[tuple]:
    """``n`` pointed rays plus +/- a ``lineality``-dimensional subspace.

    The line vectors have first coordinate 0 while every pointed ray has a
    positive one, so the lineality space is exactly their span.
    """
    rays = random_rays(rng, rank, n)
    for b in _independent(rng, lineality, rank, first_zero=True):
        rays.append(_vec(b))
        rays.append(_vec(-x for x in b))
    return rays


def cyclic_rays(rng: random.Random, rank: int, n: int) -> list[tuple]:
    """Moment-curve rays t -> (1, t, ..., t^(rank-1)) at n distinct t in -11..11."""
    return [_vec(t ** k for k in range(rank)) for t in rng.sample(range(-11, 12), n)]


def cyclic_facet_count(rank: int, n: int) -> int:
    """Facets of the cyclic polytope of dimension rank-1 with n vertices."""
    d = rank - 1
    m = d // 2
    if d % 2:
        return 2 * comb(n - m - 1, m)
    return n * comb(n - m, m) // (n - m)


# --- reproduce --------------------------------------------------------------

class Reproduce:
    """The paper's headline result: every builtin record classified.

    The input is the fixed builtin database, so the seed is accepted and
    ignored.  One operation is a ``verify_all`` pass followed by
    ``compute_report`` of the anticanonical class on every record.  Neither
    call passes ``scan_bound``.
    """

    name = "reproduce"
    cycle = 1
    trace_ops = 3  # every pass does identical work

    def build(self, fb, seed: int):
        return fb.database.load_builtin()

    def reference_check(self, fb, records) -> bool:
        """Verdict and exceptional set of every record, one ``classify`` each."""
        if sorted(r.name for r in records) != sorted(expected.VERDICTS):
            return False
        for rec in records:
            _, verdict, exceptional = expected.VERDICTS[rec.name]
            try:
                got = fb.classifier.classify(rec)
            except fb.errors.InsufficientAnnotations:
                if rec.name != expected.UNCLASSIFIED:
                    return False
                continue
            if (got.level, got.exceptional_set) != (verdict, exceptional):
                return False
        return True

    def operations(self, fb, records, seed: int):
        def run():
            report = fb.classifier.verify_all(records)
            summary = report["summary"]
            verdicts = tuple((row["name"], row["computed"]) for row in report["results"])
            ab = []
            for rec in records:
                inv = fb.invariants.compute_report(rec, rec.anticanonical)
                ab.append((rec.name, inv.a, inv.b))
            counts = (summary["pass"], summary["fail"], summary["unclassified"])
            return counts, verdicts, tuple(ab)

        op = Op("verify_all", run, _check_reproduce)
        while True:
            yield op


def _check_reproduce(answer) -> bool:
    counts, verdicts, ab = answer
    if counts != expected.SUMMARY:
        return False
    if dict(verdicts) != {name: row[1] for name, row in expected.VERDICTS.items()}:
        return False
    return (len(ab) == len(expected.VERDICTS)
            and all(a == 1 and b == expected.VERDICTS[name][0] for name, a, b in ab))


# --- cone_convert -----------------------------------------------------------

# One cycle of inputs, as (family, rank, rays, extra): extra is the subspace
# dimension of a lowdim cone and the lineality rank of a nonpointed one.
# Rank 8 stays at <= 11 rays: the facets -> generators pass grows steeply
# with the facet count (see NOTES.md).  The counts place the median inside
# the cyclic rank-5 group and the 90th percentile inside the cyclic rank-6
# group.  A cyclic cone's cost barely varies from draw to draw, so neither
# quantile moves with the seed, and neither sits on a gap between two cost
# levels, where it would jump from run to run.
CONVERT_CYCLE = (
    *[("nonpointed", 5, 7, 2)] * 3,
    *[("random", 4, 8, None)] * 5,
    *[("lowdim", 6, 9, 4)] * 4,
    *[("cyclic", 5, 8, None)] * 5,
    *[("nonpointed", 7, 8, 2)] * 2,
    *[("random", 6, 9, None)] * 4,
    ("lowdim", 8, 10, 5),
    *[("cyclic", 6, 10, None)] * 4,
    ("random", 8, 10, None),
    ("cyclic", 8, 11, None),
)


class ConeConvert:
    """The write path of ``cones``: generators -> facets -> generators.

    One operation is ``cone_from_generators`` on seeded rays followed by
    ``cone_from_facets`` on the resulting facet normals.
    """

    name = "cone_convert"
    cycle = trace_ops = len(CONVERT_CYCLE)

    def build(self, fb, seed: int):
        return None

    def reference_check(self, fb, state) -> bool:
        return True

    def operations(self, fb, state, seed: int):
        rng = random.Random(seed)
        while True:
            for family, rank, n, extra in CONVERT_CYCLE:
                if family == "random":
                    rays = random_rays(rng, rank, n)
                elif family == "cyclic":
                    rays = cyclic_rays(rng, rank, n)
                elif family == "lowdim":
                    rays = lowdim_rays(rng, rank, extra, n)
                else:
                    rays = nonpointed_rays(rng, rank, n, extra)
                yield Op(f"{family}-{rank}", _convert_run(fb, rays, rank),
                         _convert_check(family, rank, rays, extra))


def _convert_run(fb, rays, rank):
    # Facet normals describe a lower-dimensional cone only together with the
    # equations of its span, which a caller passes as opposite inequalities.
    equations = []
    for y in _annihilator(rays):
        equations += [y, tuple(-x for x in y)]

    def run():
        cone = fb.cones.cone_from_generators(rays, rank)
        back = fb.cones.cone_from_facets(list(cone.facet_normals) + equations, rank)
        return cone.generators, cone.facet_normals, back.generators
    return run


def _convert_check(family, rank, rays, extra):
    def check(answer) -> bool:
        gens, facets, back = answer
        if gens != back:
            return False
        if any(_dot(f, v) < 0 for f in facets for v in (*gens, *rays)):
            return False
        if family == "nonpointed":
            lines = [g for g in gens if tuple(-x for x in g) in gens]
            return _rank(lines) == extra
        if not all(any(_positive_multiple(g, r) for r in rays) for g in gens):
            return False
        if family == "cyclic":
            return len(facets) == cyclic_facet_count(rank, len(rays))
        if family == "lowdim":
            return _rank(gens) == extra == _rank(list(gens) + rays)
        return True
    return check


# --- cone_query -------------------------------------------------------------

# The query cones are fixed (built from this seed, whatever --seed says) so
# that set-up cost does not depend on the run's seed; the queries are seeded.
QUERY_CONE_SEED = 14095901
# (name, rank, extra rays beyond the shifted basis); all pointed, full-dimensional
QUERY_CONES = (("q4", 4, 4), ("q5", 5, 3), ("q6", 6, 3), ("q7", 7, 2), ("q8", 8, 2))
# (name, rank, subspace dimension, rays)
LOWDIM_QUERY_CONE = ("q6-lowdim", 6, 4, 8)
BLOWUP_POINTS = (1, 2, 3, 4)
FACE_DEPTHS = 4  # faces cut by 0 (interior) .. 3 random facets


@dataclass
class QueryCone:
    name: str
    rank: int
    rays: list  # the input rays: membership truth is built from these
    cone: object
    dim: int


@dataclass
class Blowup:
    model: object
    generators: list
    curves: list  # the negative curves, as coordinate tuples


def _blowup_form(x, y) -> Fraction:
    """Intersection form of the plane blown up in points: H^2 = 1, E_i^2 = -1."""
    return x[0] * y[0] - sum((a * b for a, b in zip(x[1:], y[1:])), Fraction(0))


def _blowup(fb, n_points: int) -> Blowup:
    rank = n_points + 1
    unit = [_vec(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    curves = unit[1:]
    for i in range(1, rank):
        for j in range(i + 1, rank):
            curves.append(_vec(1 if k == 0 else -1 if k in (i, j) else 0 for k in range(rank)))
    generators = curves if n_points > 1 else [unit[1], _vec([1, -1])]
    entries = {(i, i): 1 if i == 0 else -1 for i in range(rank)}
    model = fb.invariants.VarietyModel(
        name=f"plane-blowup-{n_points}", dim=2, rank=rank,
        canonical=fb.intersection.DivisorClass(_vec([-3] + [1] * n_points)),
        eff_cone=fb.cones.cone_from_generators(generators, rank),
        tensor=fb.intersection.IntersectionTensor(2, rank, entries),
        curve_pairing=tuple(unit))
    return Blowup(model, generators, curves)


def _synthetic_model(fb, q: QueryCone):
    """A model whose effective cone is ``q`` and whose -K is the ray sum."""
    anti = _combine([1] * len(q.rays), q.rays)
    return fb.invariants.VarietyModel(
        name=f"model-{q.name}", dim=3, rank=q.rank,
        canonical=fb.intersection.DivisorClass(tuple(-x for x in anti)),
        eff_cone=q.cone,
        tensor=fb.intersection.IntersectionTensor(3, q.rank, {(0, 0, 0): 1}),
        curve_pairing=tuple(_vec(1 if i == j else 0 for j in range(q.rank))
                            for i in range(q.rank)))


class ConeQuery:
    """The read path of ``cones`` and ``invariants`` on prebuilt cones.

    Set-up builds the query cones (ranks 4 to 8, one of them lower-
    dimensional), a synthetic model on each full-dimensional one, and plane
    blow-ups in 1 to 4 points.  One operation is one query from a fixed,
    cyclic mix whose arguments are seeded.
    """

    name = "cone_query"
    cycle = 4 * (len(QUERY_CONES) + 1) + len(QUERY_CONES) + len(BLOWUP_POINTS)
    trace_ops = FACE_DEPTHS * cycle  # every face depth once per cone

    def build(self, fb, seed: int):
        rng = random.Random(QUERY_CONE_SEED)
        cones = []
        for name, rank, extra in QUERY_CONES:
            rays = full_dim_rays(rng, rank, extra)
            cones.append(QueryCone(name, rank, rays,
                                   fb.cones.cone_from_generators(rays, rank), rank))
        name, rank, dim, n = LOWDIM_QUERY_CONE
        rays = lowdim_rays(rng, rank, dim, n)
        cones.append(QueryCone(name, rank, rays, fb.cones.cone_from_generators(rays, rank), dim))
        models = [(_synthetic_model(fb, q), q) for q in cones if q.dim == q.rank]
        blowups = [_blowup(fb, n) for n in BLOWUP_POINTS]
        return cones, models, blowups

    def reference_check(self, fb, state) -> bool:
        return True

    def operations(self, fb, state, seed: int):
        cones, models, blowups = state
        rng = random.Random(seed)
        cycle = 0
        while True:
            for q in cones:
                yield _contains_op(fb, q, _member_point(rng, q), True)
                yield _contains_op(fb, q, _non_member_point(rng, q, cycle), False)
                if cycle % 2 == 0:
                    yield _nonneg_op(fb, q, _member_point(rng, q), True)
                else:
                    yield _nonneg_op(fb, q, _non_member_point(rng, q, cycle), False)
                yield _face_op(fb, q, rng, cycle % FACE_DEPTHS)
            for model, q in models:
                yield _report_op(fb, model, q, rng)
            for blowup in blowups:
                yield _zariski_op(fb, blowup, rng)
            cycle += 1


def _member_point(rng, q: QueryCone) -> tuple:
    """A nonnegative combination of a random subset of the input rays."""
    chosen = rng.sample(q.rays, rng.randint(1, len(q.rays)))
    return _combine([rng.randint(1, 5) for _ in chosen], chosen)


def _non_member_point(rng, q: QueryCone, cycle: int) -> tuple:
    """Minus a member (the cone is pointed) or, on a lower-dimensional cone
    every other time, a member pushed off its span."""
    point = _member_point(rng, q)
    if q.dim < q.rank and cycle % 2:
        while True:
            off = _vec(rng.randint(-2, 2) for _ in range(q.rank))
            if _rank(q.rays + [off]) > q.dim:
                return tuple(a + b for a, b in zip(point, off))
    return tuple(-x for x in point)


def _is_certificate(coeffs, gens, target) -> bool:
    return (coeffs is not None and len(coeffs) == len(gens)
            and all(c >= 0 for c in coeffs) and _combine(coeffs, gens) == target)


def _non_member_backed(q: QueryCone, v) -> bool:
    gens = list(q.cone.generators)
    return (any(_dot(f, v) < 0 for f in q.cone.facet_normals)
            or _rank(gens + [v]) > _rank(gens))


def _contains_op(fb, q: QueryCone, v, truth: bool) -> Op:
    def check(answer) -> bool:
        if answer != truth:
            return False
        if answer:
            gens = list(q.cone.generators)
            return _is_certificate(fb.cones.nonneg_combination(v, gens), gens, v)
        return _non_member_backed(q, v)
    return Op(f"contains-{q.name}", lambda: fb.cones.contains(q.cone, v), check)


def _nonneg_op(fb, q: QueryCone, v, truth: bool) -> Op:
    gens = list(q.cone.generators)

    def run():
        coeffs = fb.cones.nonneg_combination(v, gens)
        return None if coeffs is None else tuple(coeffs)

    def check(answer) -> bool:
        if truth:
            return _is_certificate(answer, gens, v)
        return answer is None and _non_member_backed(q, v)
    return Op(f"nonneg-{q.name}", run, check)


def _face_op(fb, q: QueryCone, rng, depth: int) -> Op:
    """A point in the relative interior of the face cut by ``depth`` facets."""
    gens, facets = q.cone.generators, q.cone.facet_normals
    while True:
        cut = rng.sample(facets, depth)
        face = [g for g in gens if all(_dot(f, g) == 0 for f in cut)]
        if face:
            break
    v = _combine([rng.randint(1, 3) for _ in face], face)

    def run():
        cone, codim = fb.cones.minimal_supported_face(q.cone, v)
        return codim, cone.generators

    def check(answer) -> bool:
        codim, face_gens = answer
        if set(face_gens) != set(face) or codim != q.rank - _rank(face):
            return False
        active = [f for f in facets if _dot(f, v) == 0]
        on_active = [g for g in gens if all(_dot(f, g) == 0 for f in active)]
        return codim == q.rank - _rank(on_active)
    return Op(f"face{depth}-{q.name}", run, check)


def _report_op(fb, model, q: QueryCone, rng) -> Op:
    """compute_report for a big divisor: a positive combination of all rays."""
    coords = _combine([rng.randint(1, 4) for _ in q.rays], q.rays)
    cls = fb.intersection.DivisorClass(coords)

    def run():
        rep = fb.invariants.compute_report(model, cls)
        return rep.a, rep.b, rep.adjoint.coords, tuple(rep.witness_facets)

    def check(answer) -> bool:
        a, b, adjoint, witnesses = answer
        facets, gens = q.cone.facet_normals, q.cone.generators
        k = model.canonical.coords
        if adjoint != tuple(a * x + y for x, y in zip(coords, k)):
            return False
        if any(_dot(f, coords) <= 0 for f in facets):
            return False
        values = [_dot(f, adjoint) for f in facets]
        if min(values) != 0:  # in the cone, and on its boundary: t = a is least
            return False
        active = [i for i, x in enumerate(values) if x == 0]
        on_active = [g for g in gens if all(_dot(facets[i], g) == 0 for i in active)]
        return witnesses == tuple(active) and b == q.rank - _rank(on_active)
    return Op(f"report-{q.name}", run, check)


def _zariski_op(fb, blowup: Blowup, rng) -> Op:
    """Zariski decomposition of H plus a random effective combination."""
    rank = blowup.model.rank
    coeffs = [rng.randint(0, 2) for _ in blowup.generators]
    d = _combine([rng.randint(1, 4)] + coeffs,
                 [_vec(1 if i == 0 else 0 for i in range(rank))] + blowup.generators)
    DivisorClass = fb.intersection.DivisorClass
    curves = [(DivisorClass(c), Fraction(-1)) for c in blowup.curves]

    def run():
        dec = fb.invariants.zariski_decompose(blowup.model, DivisorClass(d), curves)
        return (dec.positive.coords, dec.negative.coords,
                tuple((c.coords, x) for c, x in dec.support))

    def check(answer) -> bool:
        positive, negative, support = answer
        if tuple(p + n for p, n in zip(positive, negative)) != d:
            return False
        if support and negative != _combine([x for _, x in support], [c for c, _ in support]):
            return False
        if any(x < 0 for _, x in support) or (not support and any(negative)):
            return False
        if any(_blowup_form(positive, c) < 0 for c in blowup.curves):
            return False
        return all(_blowup_form(positive, c) == 0 for c, _ in support)
    return Op(f"zariski-{rank - 1}", run, check)


WORKLOADS = {w.name: w for w in (Reproduce(), ConeConvert(), ConeQuery())}
