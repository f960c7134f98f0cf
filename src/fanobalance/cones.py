"""Rational polyhedral cones in dual description.

A cone is held as a pair of exact descriptions: extremal generators and
inward facet normals.  Conversion between the two runs the incremental
double description method on primitive integer vectors, with each ray's
saturated constraints as an `int` bitmask; every vector a cone holds or
returns is an exact rational (`fractions.Fraction`) tuple.  No floating
point is involved anywhere.  Ranks in this library stay small (<= 16), so
clarity wins over asymptotic tricks throughout.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DimensionMismatch, EmptyCone, NotMember, ParseError
from .linalg import (
    QVector,
    _cleared,
    bareiss,
    check_length,
    dot,
    format_fraction,
    in_span,
    is_zero,
    qvec,
    span_rank,
    with_positive_leading,
    zero_vector,
)

MAX_SUPPORTED_RANK = 16

IntVector = tuple[int, ...]


def _unit_vectors(rank: int) -> list[IntVector]:
    return [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]


def _idot(u: IntVector, v: IntVector) -> int:
    return sum(map(mul, u, v))


def _primitive(v) -> IntVector:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    return tuple(a // g for a in v) if g > 1 else tuple(v)


def _combine(scale: int, v: IntVector, coeff: int, b: IntVector) -> IntVector:
    """The primitive vector of ``scale * v - coeff * b``."""
    return _primitive([scale * x - coeff * y for x, y in zip(v, b)])


def dual_extreme_rays(vectors: list[QVector], rank: int) -> tuple[list[IntVector], list[IntVector]]:
    """Extreme rays and lineality basis of ``{y : v . y >= 0 for all v}``.

    This is the double description method with incremental constraint
    insertion.  The state is a lineality basis ``B`` and a ray list ``R``
    with, for each ray, the bitmask of already-processed constraints it
    saturates; the represented set is always ``span(B) + cone(R)``.  Every
    constraint is first scaled to a primitive integer vector, and every
    vector of the state is a primitive (rays) or gcd-reduced (basis)
    integer vector: each step below only rescales by a positive integer
    before reducing.

    Inserting a constraint ``a``:

    * if ``a`` is nonzero on the lineality space, one basis vector ``b*``
      with ``a(b*) > 0`` leaves the basis and becomes a ray, the remaining
      basis and all rays are sheared into ``ker(a)`` (``v`` becomes
      ``a(b*) v - a(v) b*``);
    * otherwise rays are split by the sign of ``a`` and each adjacent
      (positive, negative) pair contributes the combination ray on
      ``{a = 0}``.  Adjacency uses the combinatorial test: no third ray
      saturates every constraint the pair saturates jointly.  A pair that
      jointly saturates fewer than ``rank - dim B - 2`` constraints spans
      no 2-face modulo ``span(B)`` and is skipped without the test.

    Returns primitive integer vectors; rays sorted lexicographically,
    lineality vectors sign-normalized to a positive leading entry.
    """
    constraints: list[IntVector] = []
    seen: set[IntVector] = set()
    for v in vectors:
        if len(v) != rank:
            raise DimensionMismatch(f"constraint of length {len(v)} in rank {rank}")
        p = _primitive(_cleared(v))
        if not any(p) or p in seen:
            continue
        seen.add(p)
        constraints.append(p)

    lineality: list[IntVector] = _unit_vectors(rank)
    rays: list[tuple[IntVector, int]] = []

    for idx, a in enumerate(constraints):
        bit = 1 << idx
        pivot = next((b for b in lineality if _idot(a, b)), None)
        if pivot is not None:
            bstar = pivot if _idot(a, pivot) > 0 else tuple(-x for x in pivot)
            ab = _idot(a, bstar)
            lineality = [_combine(ab, b, _idot(a, b), bstar) for b in lineality if b is not pivot]
            new_rays = []
            for r, active in rays:
                r2 = _combine(ab, r, _idot(a, r), bstar)
                if any(r2):
                    new_rays.append((r2, active | bit))
            new_rays.append((bstar, bit - 1))
            rays = new_rays
            continue

        split = [(_idot(a, r), r, act) for r, act in rays]
        plus = [ray for ray in split if ray[0] > 0]
        zero = [(r, act | bit) for x, r, act in split if x == 0]
        minus = [ray for ray in split if ray[0] < 0]
        if not minus:
            rays = [(r, act) for _, r, act in plus] + zero
            continue
        masks = [act for _, act in rays]
        need = rank - len(lineality) - 2
        combined: list[tuple[IntVector, int]] = []
        for (xp, p, pact), (xm, m, mact) in itertools.product(plus, minus):
            common = pact & mact
            if common.bit_count() < need:
                continue
            # p and m themselves saturate ``common``; a third ray must not
            if list(map(common.__and__, masks)).count(common) > 2:
                continue
            comb = _combine(xp, m, xm, p)
            if any(comb):
                combined.append((comb, common | bit))
        rays = [(r, act) for _, r, act in plus] + zero + combined

    target = rank - len(lineality) - 1
    extreme: set[IntVector] = set()
    for r, active in rays:
        rows = [list(c) for i, c in enumerate(constraints) if active >> i & 1]
        if bareiss(rows)[0] == target:
            extreme.add(r)
    lin_basis = sorted(with_positive_leading(_primitive(b)) for b in lineality)
    return sorted(extreme), lin_basis


class Cone:
    """A rational polyhedral cone with both descriptions.

    Holds the extremal generators (plus a +/- basis of the lineality space),
    the inward facet normals, the lineality rank and the dimension of the
    span.  Build cones with the :func:`cone_from_generators` /
    :func:`cone_from_facets` factories, which canonicalize and
    cross-validate the descriptions.
    """

    __slots__ = ("ambient_rank", "generators", "facet_normals", "lineality_rank", "_dim")

    def __init__(self, ambient_rank: int, generators: tuple[QVector, ...],
                 facet_normals: tuple[QVector, ...], lineality_rank: int, dim: int):
        if ambient_rank < 0 or ambient_rank > MAX_SUPPORTED_RANK:
            raise DimensionMismatch(f"ambient rank {ambient_rank} outside supported range")
        self.ambient_rank = ambient_rank
        self.generators = generators
        self.facet_normals = facet_normals
        self.lineality_rank = lineality_rank
        self._dim = dim

    @property
    def is_pointed(self) -> bool:
        return self.lineality_rank == 0

    def dim(self) -> int:
        """Dimension of the linear span of the cone."""
        return self._dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.ambient_rank == other.ambient_rank
                and self.generators == other.generators
                and self.facet_normals == other.facet_normals)

    def __hash__(self):
        return hash((self.ambient_rank, self.generators, self.facet_normals))

    def __repr__(self):
        return (f"Cone(rank={self.ambient_rank}, generators={len(self.generators)}, "
                f"facets={len(self.facet_normals)}, lineality={self.lineality_rank})")

    def describes_same_set(self, other: "Cone") -> bool:
        """Exact set equality, decided by mutual generator membership."""
        return (all(contains(other, g) for g in self.generators)
                and all(contains(self, g) for g in other.generators))

    def to_json(self) -> dict:
        return {
            "ambient_rank": self.ambient_rank,
            "generators": [[format_fraction(c) for c in g] for g in self.generators],
            "facets": [[format_fraction(c) for c in f] for f in self.facet_normals],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cone":
        if "ambient_rank" not in data:
            raise ParseError("cone object: missing key 'ambient_rank'")
        rank = data["ambient_rank"]
        gens = data.get("generators")
        facets = data.get("facets")
        if gens is None and facets is None:
            raise ParseError("cone object: need 'generators' or 'facets'")
        if gens is not None:
            cone = cone_from_generators([qvec(g) for g in gens], rank)
            if facets is not None:
                stated = cone_from_facets([qvec(f) for f in facets], rank)
                if not cone.describes_same_set(stated):
                    raise ParseError("cone object: generators and facets disagree")
            return cone
        return cone_from_facets([qvec(f) for f in facets], rank)


def _canonical_generators(rays: list[IntVector], lineality: list[IntVector]) -> list[IntVector]:
    gens = list(rays)
    for b in lineality:
        gens.append(b)
        gens.append(tuple(-x for x in b))
    return sorted(set(gens))


def _make_cone(ambient_rank: int, generators: list[IntVector], facets: list[IntVector],
               lineality_rank: int, dim: int) -> Cone:
    """Check the integer descriptions against each other and wrap them as rationals."""
    for g in generators:
        for f in facets:
            if _idot(f, g) < 0:
                raise EmptyCone("internal: generator violates a facet normal")
    return Cone(ambient_rank,
                tuple(tuple(Fraction(x) for x in g) for g in generators),
                tuple(tuple(Fraction(x) for x in f) for f in facets),
                lineality_rank, dim)


def cone_from_generators(rays: list[QVector], ambient_rank: int) -> Cone:
    """Cone spanned by the given rays, with facets from double description.

    Duplicate and positively-scaled rays are harmless: generators are
    canonicalized to the sorted primitive extremal rays (plus a +/- basis of
    the lineality space), so the construction is idempotent.
    """
    for r in rays:
        check_length(r, ambient_rank)
    facets, annihilator = dual_extreme_rays(list(rays), ambient_rank)
    # The dual's lineality is the annihilator of span(rays): not a facet, so
    # the primal must be rebuilt inside its own span.
    support = list(facets)
    for s in annihilator:
        support.append(s)
        support.append(tuple(-x for x in s))
    gens, lin = dual_extreme_rays(support, ambient_rank)
    return _make_cone(ambient_rank, _canonical_generators(gens, lin), facets, len(lin),
                      ambient_rank - len(annihilator))


def cone_from_facets(normals: list[QVector], ambient_rank: int) -> Cone:
    """Cone cut out by ``normal . x >= 0``; generators by dualizing twice."""
    cleaned = []
    for n in normals:
        check_length(n, ambient_rank)
        if not is_zero(n):
            cleaned.append(n)
    gens, lin = dual_extreme_rays(cleaned, ambient_rank)
    generators = _canonical_generators(gens, lin)
    facets, annihilator = dual_extreme_rays(generators, ambient_rank)
    return _make_cone(ambient_rank, generators, facets, len(lin), ambient_rank - len(annihilator))


def contains(cone: Cone, v: QVector) -> bool:
    """Membership: nonnegative on every facet normal and inside the span.

    The span test is needed only when the cone is lower-dimensional.
    """
    check_length(v, cone.ambient_rank)
    for lam in cone.facet_normals:
        if dot(lam, v) < 0:
            return False
    return cone.dim() == cone.ambient_rank or in_span(v, list(cone.generators))


def minimal_supported_face(cone: Cone, v: QVector) -> tuple[Cone, int]:
    """Smallest face of ``cone`` cut out by facets vanishing on ``v``.

    Returns the face together with its codimension in the ambient lattice.
    A face of a cone is spanned by the generators lying on it, so the face
    is rebuilt from the generators annihilated by every active normal.
    """
    if not contains(cone, v):
        raise NotMember(f"{v} is not a member of the cone")
    active = [lam for lam in cone.facet_normals if dot(lam, v) == 0]
    face_gens = [g for g in cone.generators
                 if all(dot(lam, g) == 0 for lam in active)]
    face = cone_from_generators(face_gens, cone.ambient_rank)
    return face, cone.ambient_rank - face.dim()


def active_facet_indices(cone: Cone, v: QVector) -> list[int]:
    """Indices (into facet_normals) of the supporting normals vanishing on v."""
    return [i for i, lam in enumerate(cone.facet_normals) if dot(lam, v) == 0]


def nonneg_combination(target: QVector, rays: list[QVector]) -> list[Fraction] | None:
    """Nonnegative rational coefficients writing ``target`` in ``rays``.

    Phase-I simplex with Bland's rule over exact rationals; returns None
    when no such combination exists.  This is the independent membership
    certificate used to cross-check the facet test.
    """
    d = len(target)
    for r in rays:
        if len(r) != d:
            raise DimensionMismatch(f"ray of length {len(r)} against target of length {d}")
    n = len(rays)
    if n == 0:
        return [] if is_zero(target) else None

    # Tableau rows: d equality constraints, columns: n ray variables then d
    # artificials, final column the right-hand side.  Objective: drive the
    # artificials (cost 1 each) to zero.
    rows = []
    for i in range(d):
        row = [rays[j][i] for j in range(n)]
        rhs = target[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [Fraction(1 if k == i else 0) for k in range(d)]
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(d)]
    # Reduced cost row for minimizing the artificial sum.
    obj = [Fraction(0)] * (n + d + 1)
    for row in rows:
        for c in range(n + d + 1):
            obj[c] += row[c]
    for i in range(d):
        obj[n + i] = Fraction(0)

    while True:
        enter = None
        for c in range(n + d):
            if obj[c] > 0:
                enter = c  # Bland: smallest eligible index
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(d):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None  # unbounded phase-I cannot happen with b >= 0, defensive
        pivot = rows[leave][enter]
        rows[leave] = [x / pivot for x in rows[leave]]
        for i in range(d):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    coeffs = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            coeffs[var] = rows[i][-1]
        elif rows[i][-1] != 0:
            return None  # artificial stuck at a positive level
    return coeffs


def zero_cone(ambient_rank: int) -> Cone:
    """The cone consisting of the origin only."""
    return cone_from_generators([], ambient_rank)


def full_space(ambient_rank: int) -> Cone:
    """The whole ambient space (lineality rank equals the ambient rank)."""
    return cone_from_facets([], ambient_rank)


def orthant(ambient_rank: int) -> Cone:
    """The nonnegative orthant; self-dual, handy in tests and databases."""
    return cone_from_generators(_unit_vectors(ambient_rank), ambient_rank)


__all__ = [
    "Cone",
    "cone_from_generators",
    "cone_from_facets",
    "contains",
    "minimal_supported_face",
    "active_facet_indices",
    "nonneg_combination",
    "dual_extreme_rays",
    "zero_cone",
    "full_space",
    "orthant",
    "span_rank",
    "qvec",
    "zero_vector",
]
