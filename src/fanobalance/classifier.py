"""Decision procedure for the balanced property of the anticanonical class.

`classify` mechanizes the numeric skeleton of the classification arguments:
threshold and face invariants of the model itself, a scan of curve classes
against the moving-curve degree floor, and a scan of surface classes
against the adjoint effectivity/separation thresholds.  Geometric facts the
numbers cannot see (which families dominate, fiber types, irrationality of
special members) are consumed from the record's cited annotations; where a
class is covered neither by a threshold nor by an annotation, the record is
honestly not machine-classifiable and InsufficientAnnotations is raised.

Comparisons are lexicographic in (a, b).  Witnesses recording only an upper
bound for a (or an undetermined b) are compared pessimistically; they can
cap the verdict but never upgrade it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil

from .criteria import curve_degree_bound, deformation_floor, reider_effective, reider_separates
from .database import FactKind, FanoRecord, GeometricFact, LocusFragment, validate
from .database import (
    VERDICT_BALANCED,
    VERDICT_NONE,
    VERDICT_UNCLASSIFIED,
    VERDICT_WEAKLY_A_BALANCED,
    VERDICT_WEAKLY_BALANCED,
)
from .errors import CorruptData, InsufficientAnnotations, RankMismatch
from .intersection import CurveClass, pair, surface_restriction_form
from .invariants import a_invariant, b_invariant, curve_a
from .linalg import QVector, common_ratio, dot, format_fraction


class Comparison(str, enum.Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"
    NA = "NA"


@dataclass(frozen=True)
class ComparisonOutcome:
    """Lexicographic outcome of (a, b) against the ambient pair.

    The second component is NA exactly when the first is LT: a strict drop
    in a settles the comparison before b is consulted.
    """

    a_cmp: Comparison
    b_cmp: Comparison

    def __post_init__(self):
        if (self.b_cmp == Comparison.NA) != (self.a_cmp == Comparison.LT):
            raise ValueError("b comparison is NA exactly when a strictly drops")


@dataclass(frozen=True)
class Witness:
    """One compared test object: description, its (a, b), and the outcome.

    ``pessimistic`` marks upper-bound-only data (b None means the face side
    is undetermined and the outcome records the worst case).
    """

    description: str
    a: Fraction
    b: int | None
    outcome: ComparisonOutcome
    pessimistic: bool = False

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "a": format_fraction(self.a),
            "b": self.b,
            "a_cmp": self.outcome.a_cmp.value,
            "b_cmp": self.outcome.b_cmp.value,
            "pessimistic": self.pessimistic,
        }


@dataclass(frozen=True)
class BalancedVerdict:
    level: str
    witnesses: tuple[Witness, ...]
    exceptional_set: str

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "witnesses": [w.to_json() for w in self.witnesses],
            "exceptional_set": self.exceptional_set,
        }


_LEVEL_ORDER = {
    VERDICT_BALANCED: 3,
    VERDICT_WEAKLY_BALANCED: 2,
    VERDICT_WEAKLY_A_BALANCED: 1,
    VERDICT_NONE: 0,
}


def _compare(a: Fraction, b: int | None, a_x: Fraction, b_x: int) -> ComparisonOutcome:
    if a < a_x:
        return ComparisonOutcome(Comparison.LT, Comparison.NA)
    if a > a_x:
        return ComparisonOutcome(Comparison.GT, _cmp_b(b, b_x))
    return ComparisonOutcome(Comparison.EQ, _cmp_b(b, b_x))


def _cmp_b(b: int | None, b_x: int) -> Comparison:
    if b is None:
        return Comparison.GT  # undetermined face side: assume the worst
    if b < b_x:
        return Comparison.LT
    if b > b_x:
        return Comparison.GT
    return Comparison.EQ


def _cap_for(outcome: ComparisonOutcome) -> int:
    if outcome.a_cmp == Comparison.GT:
        return _LEVEL_ORDER[VERDICT_NONE]
    if outcome.a_cmp == Comparison.EQ:
        if outcome.b_cmp == Comparison.GT:
            return _LEVEL_ORDER[VERDICT_WEAKLY_A_BALANCED]
        if outcome.b_cmp == Comparison.EQ:
            return _LEVEL_ORDER[VERDICT_WEAKLY_BALANCED]
    return _LEVEL_ORDER[VERDICT_BALANCED]


def assemble_exceptional_set(fragments: list[LocusFragment]) -> str:
    """Deterministic union text from the triggered locus fragments.

    Singular-fiber fragments merge into one "singular fibers of f_i ..."
    piece; free-text loci follow in first-trigger order.
    """
    fiber_indexes: list[int] = []
    texts: list[str] = []
    for fragment in fragments:
        if fragment.fiber_index is not None:
            if fragment.fiber_index not in fiber_indexes:
                fiber_indexes.append(fragment.fiber_index)
        elif fragment.text and fragment.text not in texts:
            texts.append(fragment.text)
    pieces: list[str] = []
    if fiber_indexes:
        pieces.append("singular fibers of "
                      + " and ".join(f"f{i}" for i in sorted(fiber_indexes)))
    pieces.extend(texts)
    if not pieces:
        return "empty"
    if len(pieces) == 1 and not fiber_indexes:
        return pieces[0]
    text = "union of " + pieces[0]
    for piece in pieces[1:]:
        joiner = ", and " if " and " in pieces[0] else " and "
        text += joiner + piece
    return text


def _facts_for_curve(rec: FanoRecord, cls: QVector, kind: FactKind) -> list[GeometricFact]:
    return [f for f in rec.annotations if f.kind == kind and f.curve_class == cls]


def _fact_for_divisor(rec: FanoRecord, cls: QVector) -> GeometricFact | None:
    for f in rec.annotations:
        if f.divisor_class == cls and f.kind in (
                FactKind.FIBER_SURFACE_PROFILE,
                FactKind.CONIC_BUNDLE_LINE,
                FactKind.NON_RATIONAL_FIBER):
            return f
    return None


def _fiber_units(rec: FanoRecord) -> list[QVector]:
    return [f.divisor_class for f in rec.annotations
            if f.fiber_class and f.divisor_class is not None]


def _level_form(rec: FanoRecord) -> tuple[Fraction, ...]:
    """Coefficients s with (-K)^2 . D = s . D for surface classes D."""
    if rec.rank == 2:
        return surface_restriction_form(rec.tensor, rec.anticanonical)
    return (rec.index * rec.index * rec.tensor.entry((0, 0, 0)),)


def _scan_box(rec: FanoRecord) -> int:
    """Side B of the scanned box [0, B]^rank; no larger box changes a scan.

    With curve degrees d_j = (-K).e_j > 0 (validate sees to it), surface
    levels s_j (`_level_form`), A the largest annotated divisor coordinate,
    T the largest of ceil(10 / s_j) for s_j > 0 and, on rank 1 with index
    >= 2, ceil(5 / ((index - 1)^2 * cube)) (the strict category), and f the
    number of fiber units off the axes (A, T = 0 if none):
    B = f + max(A + 1, T, ceil((2 + max d) / min d)).  An s_j < 0, or an
    s_j = 0 with e_j no fiber unit, raises InsufficientAnnotations.

    Curves: degree <= 2 bounds each coordinate by 2 / min d.  The least
    degree D > 2 is <= 2 + max d, or lowering a coordinate of its class
    would keep it above 2; so that class is inside and every class outside
    has degree > D.  Surfaces: annotated classes are inside.  Take c outside
    and no fiber multiple, and lower its coordinates above B into
    (max(A, T - 1), B].  That gives an unannotated c' inside, visited
    before c, in c's category: s_j > 0 keeps both at level >= 10 (strict on
    rank 1), s_j = 0 keeps the level.  An axis unit with c' as a multiple
    has c as one; each of the f other units bars at most one of the f + 1
    or more values of a lowered coordinate.  So each category shows first,
    and each error is raised first, inside the box, in the same order.
    """
    axes = [tuple(Fraction(int(i == j)) for i in range(rec.rank)) for j in range(rec.rank)]
    degrees = [pair(rec.anticanonical, CurveClass(e, rec.curve_pairing)) for e in axes]
    levels = _level_form(rec)
    fiber_units = _fiber_units(rec)
    annotated = [c for f in rec.annotations if f.divisor_class is not None
                 for c in f.divisor_class]
    terms = [ceil(max(annotated, default=0)) + 1,
             ceil((2 + max(degrees)) / min(degrees))]
    for e, level in zip(axes, levels):
        if level > 0:
            terms.append(ceil(10 / level))
        elif level < 0 or e not in fiber_units:
            label = ",".join(format_fraction(c) for c in e)
            raise InsufficientAnnotations(
                f"{rec.name}: surface level {format_fraction(level)} along ({label}) "
                "is not positive and that direction is not an annotated fiber class")
    if rec.rank == 1 and rec.index >= 2 and levels[0] > 0:
        terms.append(ceil(5 * rec.index ** 2 / ((rec.index - 1) ** 2 * levels[0])))
    off_axis = sum(1 for u in fiber_units if sum(c != 0 for c in u) >= 2)
    return off_axis + max(terms)


def _lattice_points(rank: int, bound: int):
    """Nonzero classes of the box [0, bound]^rank, first coordinate outermost."""
    for coords in product(range(bound + 1), repeat=rank):
        if any(coords):
            yield tuple(Fraction(c) for c in coords)


def _curve_degrees(rec: FanoRecord, box: int):
    """(class, anticanonical degree) over the box; degrees are positive, as d > 0."""
    anti = rec.anticanonical
    for coords in _lattice_points(rec.rank, box):
        yield coords, pair(anti, CurveClass(coords, rec.curve_pairing))


def _curve_scan(rec: FanoRecord, a_x: Fraction, b_x: int, box: int,
                witnesses: list[Witness], fragments: list[LocusFragment]) -> None:
    floor = deformation_floor()
    min_high_degree: Fraction | None = None
    for coords, degree in _curve_degrees(rec, box):
        if degree < floor:
            line_facts = _facts_for_curve(rec, coords, FactKind.DOMINATING_LINE_LOCUS)
            if line_facts:
                for fact in line_facts:
                    fragments.extend(fact.locus)
            else:
                fragments.append(LocusFragment(
                    text="curve classes below the moving-degree floor "
                         "(confined to a closed set by the degree bound)"))
        elif degree == floor:
            # the class is visited once; its first conic annotation is its witness
            for fact in _facts_for_curve(rec, coords, FactKind.DOMINATING_CONIC_CLASS)[:1]:
                a = fact.a if fact.a is not None else curve_a(degree)
                b = fact.b if fact.b is not None else 1
                label = ",".join(format_fraction(c) for c in coords)
                witnesses.append(Witness(
                    description=f"dominating conic family in curve class ({label})",
                    a=a, b=b, outcome=_compare(a, b, a_x, b_x)))
        elif min_high_degree is None or degree < min_high_degree:
            min_high_degree = degree
    if min_high_degree is not None:
        a = curve_a(min_high_degree)
        witnesses.append(Witness(
            description="curves above the conic degree (threshold drops strictly)",
            a=a, b=1, outcome=_compare(a, 1, a_x, b_x)))


def _surface_witness_from_fact(fact: GeometricFact, coords: QVector,
                               a_x: Fraction, b_x: int) -> Witness:
    a = fact.a if fact.a is not None else a_x
    label = ",".join(format_fraction(c) for c in coords)
    return Witness(
        description=f"annotated surface class ({label}): {fact.kind.value}",
        a=a, b=fact.b, outcome=_compare(a, fact.b, a_x, b_x),
        pessimistic=fact.b is None)


def _fiber_class_multiple(coords: QVector, fiber_units: list[QVector]) -> bool:
    scales = (common_ratio(coords, unit) for unit in fiber_units)
    return any(scale is not None and scale >= 2 for scale in scales)


def _surface_scan(rec: FanoRecord, a_x: Fraction, b_x: int, box: int,
                  witnesses: list[Witness], fragments: list[LocusFragment]) -> None:
    fiber_units = _fiber_units(rec)
    levels = _level_form(rec)
    seen_categories: set[str] = set()

    for coords in _lattice_points(rec.rank, box):
        if _fiber_class_multiple(coords, fiber_units):
            continue  # no irreducible members in multiples of a fiber class
        fact = _fact_for_divisor(rec, coords)
        if fact is not None:
            witnesses.append(_surface_witness_from_fact(fact, coords, a_x, b_x))
            fragments.extend(fact.locus)
            continue

        if rec.rank == 1:
            # adjoint tested at c times the fundamental divisor: if some
            # c below the index already clears the effectivity threshold,
            # the threshold invariant drops strictly below a(X).
            index = rec.index
            cube = rec.tensor.entry((0, 0, 0))
            m = coords[0]
            strict_c = None
            for c in range(1, index):
                if c * c * m * cube >= 5:
                    strict_c = c
                    break
            if strict_c is not None:
                category = "strict"
                if category not in seen_categories:
                    seen_categories.add(category)
                    a = Fraction(strict_c, index)
                    witnesses.append(Witness(
                        description="surfaces with adjoint effective below the index "
                                    "(threshold drops strictly)",
                        a=a, b=None,
                        outcome=ComparisonOutcome(Comparison.LT, Comparison.NA),
                        pessimistic=True))
                continue
        level = dot(levels, coords)
        if reider_separates(level).holds:
            category = "separates"
            if category not in seen_categories:
                seen_categories.add(category)
                witnesses.append(Witness(
                    description="surfaces at separation level: threshold at most a(X), "
                                "face invariant 1 on equality",
                    a=a_x, b=1, outcome=_compare(a_x, 1, a_x, b_x),
                    pessimistic=True))
        elif reider_effective(level).holds:
            category = "effective-only"
            if category not in seen_categories:
                seen_categories.add(category)
                witnesses.append(Witness(
                    description="surfaces at effectivity level only: threshold at most "
                                "a(X), face side undetermined",
                    a=a_x, b=None,
                    outcome=ComparisonOutcome(Comparison.EQ, Comparison.GT),
                    pessimistic=True))
        else:
            label = ",".join(format_fraction(c) for c in coords)
            raise InsufficientAnnotations(
                f"{rec.name}: surface class ({label}) is below every adjoint "
                "threshold and carries no annotation")


def _check(rec: FanoRecord) -> None:
    if rec.rank not in (1, 2):
        raise RankMismatch("the decision procedure covers Picard rank 1 and 2 records")
    problems = validate(rec)
    if problems:
        raise CorruptData(f"{rec.name}: {'; '.join(problems)}")


def classify(rec: FanoRecord) -> BalancedVerdict:
    """Balanced / weakly balanced / weakly a-balanced verdict for -K.

    Runs the base invariants, the curve scan, and the surface scan over
    the box `_scan_box` reads off the record, then aggregates witness
    comparisons under the lexicographic order and assembles the
    exceptional-set text from the triggered annotations.
    """
    _check(rec)
    box = _scan_box(rec)
    anti = rec.anticanonical
    a_x = a_invariant(rec, anti)
    b_x = b_invariant(rec, anti)

    witnesses: list[Witness] = []
    fragments: list[LocusFragment] = []
    for fact in rec.annotations:
        if fact.kind == FactKind.EXCEPTIONAL_DIVISOR:
            fragments.extend(fact.locus)
    _curve_scan(rec, a_x, b_x, box, witnesses, fragments)
    _surface_scan(rec, a_x, b_x, box, witnesses, fragments)

    level_rank = _LEVEL_ORDER[VERDICT_BALANCED]
    for witness in witnesses:
        level_rank = min(level_rank, _cap_for(witness.outcome))
    level = {v: k for k, v in _LEVEL_ORDER.items()}[level_rank]
    return BalancedVerdict(
        level=level,
        witnesses=tuple(witnesses),
        exceptional_set=assemble_exceptional_set(fragments),
    )


def curve_violation_scan(rec: FanoRecord) -> list[QVector]:
    """Curve classes that could beat the ambient threshold invariant.

    These are exactly the classes of anticanonical degree strictly below
    2 / a(X); for a(X) = 1 that means the degree-1 (line) classes.  They
    lie in the scan box, which holds every class of degree at most 2.
    """
    _check(rec)
    bound = curve_degree_bound(a_invariant(rec, rec.anticanonical))
    return [coords for coords, degree in _curve_degrees(rec, _scan_box(rec))
            if degree < bound]


def verify_all(records: list[FanoRecord]) -> dict:
    """Compare classify() against every record's expected verdict.

    Records expected to be unclassified are reported but never counted as
    failures; a record the procedure cannot classify (missing annotations)
    is reported as computed "unclassified".  Results are merged in name
    order so the report is deterministic.
    """
    results = []
    n_pass = n_fail = n_unclassified = 0
    for rec in sorted(records, key=lambda r: r.name):
        computed_witnesses: list[dict] = []
        try:
            verdict = classify(rec)
            computed = verdict.level
            computed_witnesses = [w.to_json() for w in verdict.witnesses]
        except InsufficientAnnotations:
            computed = VERDICT_UNCLASSIFIED
        expected = rec.expected_verdict
        match = computed == expected
        if expected == VERDICT_UNCLASSIFIED:
            n_unclassified += 1
        elif match:
            n_pass += 1
        else:
            n_fail += 1
        results.append({
            "name": rec.name,
            "computed": computed,
            "expected": expected,
            "match": match,
            "witnesses": computed_witnesses,
        })
    return {
        "results": results,
        "summary": {"pass": n_pass, "fail": n_fail, "unclassified": n_unclassified},
    }
