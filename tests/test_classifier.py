import copy

import pytest

from fanobalance import classifier
from fanobalance.classifier import (
    BalancedVerdict,
    Comparison,
    ComparisonOutcome,
    _fiber_class_multiple,
    assemble_exceptional_set,
    classify,
    curve_violation_scan,
    verify_all,
)
from fanobalance.database import (
    LocusFragment,
    VERDICT_BALANCED,
    VERDICT_UNCLASSIFIED,
    VERDICT_WEAKLY_A_BALANCED,
    VERDICT_WEAKLY_BALANCED,
    record_from_json,
    record_to_json,
    validate,
)
from fanobalance.errors import CorruptData, InsufficientAnnotations
from fanobalance.intersection import surface_restriction_form
from fanobalance.linalg import qvec


class TestComparisonOutcome:
    def test_na_exactly_on_strict_drop(self):
        ComparisonOutcome(Comparison.LT, Comparison.NA)
        ComparisonOutcome(Comparison.EQ, Comparison.LT)
        with pytest.raises(ValueError):
            ComparisonOutcome(Comparison.LT, Comparison.LT)
        with pytest.raises(ValueError):
            ComparisonOutcome(Comparison.EQ, Comparison.NA)


class TestVerdicts:
    def test_all_builtin_records_match_expected(self, records):
        for rec in records:
            if rec.expected_verdict == VERDICT_UNCLASSIFIED:
                with pytest.raises(InsufficientAnnotations):
                    classify(rec)
                continue
            verdict = classify(rec)
            assert verdict.level == rec.expected_verdict, rec.name

    def test_examples_from_both_series(self, by_name):
        assert classify(by_name["rank2-d62"]).level == VERDICT_BALANCED
        assert classify(by_name["rank2-d24"]).level == VERDICT_WEAKLY_BALANCED
        assert classify(by_name["rank2-d6"]).level == VERDICT_WEAKLY_A_BALANCED
        assert classify(by_name["rank1-r2-d40"]).level == VERDICT_WEAKLY_BALANCED

    def test_exceptional_set_goldens(self, records):
        for rec in records:
            if rec.expected_verdict == VERDICT_UNCLASSIFIED:
                continue
            assert classify(rec).exceptional_set == rec.expected_exceptional_set, rec.name

    def test_weakly_balanced_records_have_tie_witness(self, records):
        for rec in records:
            if rec.expected_verdict != VERDICT_WEAKLY_BALANCED:
                continue
            verdict = classify(rec)
            assert any(w.outcome.a_cmp == Comparison.EQ and w.outcome.b_cmp == Comparison.EQ
                       for w in verdict.witnesses), rec.name
            assert not any(w.outcome.b_cmp == Comparison.GT for w in verdict.witnesses)

    def test_balanced_records_have_strict_witnesses_only(self, records):
        for rec in records:
            if rec.expected_verdict != VERDICT_BALANCED:
                continue
            verdict = classify(rec)
            for w in verdict.witnesses:
                assert w.outcome.a_cmp == Comparison.LT or (
                    w.outcome.a_cmp == Comparison.EQ
                    and w.outcome.b_cmp == Comparison.LT), (rec.name, w)

    def test_weakly_a_records_have_face_breaker(self, records):
        for rec in records:
            if rec.expected_verdict != VERDICT_WEAKLY_A_BALANCED:
                continue
            verdict = classify(rec)
            assert any(w.outcome.a_cmp == Comparison.EQ and w.outcome.b_cmp == Comparison.GT
                       for w in verdict.witnesses), rec.name

    def test_scan_box_suffices(self, records, by_name, monkeypatch):
        # the derived box agrees with the fixed 50-box on every record, on
        # every record with one annotation deleted, and on the zero-level
        # rank2-d54 variants
        variants = []
        for rec in records:
            raw = record_to_json(rec)
            variants.append(raw)
            for i in range(len(raw.get("annotations", []))):
                variant = copy.deepcopy(raw)
                del variant["annotations"][i]
                variants.append(variant)
        assert len(variants) == 26 + 61
        variants += [_zero_level_d54(by_name, keep_fiber)
                     for keep_fiber in (True, False)]
        # crafted records that need the A + 1, the 10 / s and the f terms
        variants += [_with_surface_annotations(by_name, "rank1-P3", 2),
                     _with_surface_annotations(by_name, "rank1-r1-d2", 2),
                     _off_axis_fiber_d54(by_name)]
        variants = [record_from_json(raw) for raw in variants]
        derived = [_outcome(rec) for rec in variants]
        monkeypatch.setattr(classifier, "_scan_box", lambda rec: 50)
        for rec, verdict in zip(variants, derived):
            assert _outcome(rec) == verdict, rec.name

    def test_zero_level_needs_a_fiber_annotation(self, by_name):
        rec = record_from_json(_zero_level_d54(by_name, keep_fiber=True))
        assert validate(rec) == []
        assert surface_restriction_form(rec.tensor, rec.anticanonical) == (18, 0)
        verdict = classify(rec)
        assert verdict.level == VERDICT_BALANCED
        assert len(verdict.witnesses) == 4
        rec = record_from_json(_zero_level_d54(by_name, keep_fiber=False))
        with pytest.raises(InsufficientAnnotations, match=r"along \(0,1\)"):
            classify(rec)

    def test_balanced_record_has_zero_adjoint(self, records):
        # consistent with rigidity: a = 1 makes the adjoint of -K the zero class
        from fanobalance.invariants import a_invariant, adjoint_class
        for rec in records:
            if rec.expected_verdict == VERDICT_BALANCED:
                a = a_invariant(rec, rec.anticanonical)
                assert adjoint_class(rec, rec.anticanonical, a).is_zero()

    def test_corrupt_record_rejected(self, by_name):
        raw = copy.deepcopy(record_to_json(by_name["rank2-d62"]))
        raw["tensor"]["entries"]["1,1,1"] = "5"
        rec = record_from_json(raw)
        with pytest.raises(CorruptData):
            classify(rec)

    def test_missing_annotations_refuse_to_guess(self, by_name):
        raw = copy.deepcopy(record_to_json(by_name["rank2-d6"]))
        raw["annotations"] = [a for a in raw["annotations"]
                              if a["kind"] != "FiberSurfaceProfile"]
        rec = record_from_json(raw)
        with pytest.raises(InsufficientAnnotations):
            classify(rec)


def _outcome(rec):
    try:
        return classify(rec)
    except InsufficientAnnotations:
        return VERDICT_UNCLASSIFIED


def _zero_level_d54(by_name, keep_fiber: bool) -> dict:
    # (-K)^2 . L2 = 0: the surface level has no pull along the fiber direction
    raw = copy.deepcopy(record_to_json(by_name["rank2-d54"]))
    raw["tensor"]["entries"] = {"0,0,0": "2"}
    if not keep_fiber:
        raw["annotations"] = [a for a in raw["annotations"]
                              if a["kind"] != "FiberSurfaceProfile"]
    return raw


def _surface_fact(*coords, fiber=False) -> dict:
    payload = {"divisor_class": [str(c) for c in coords], "a": "1", "b": 1}
    if fiber:
        payload["fiber_class"] = True
    kind = "FiberSurfaceProfile" if fiber else "NonRationalFiber"
    return {"kind": kind, "payload": payload, "citation": "fixture"}


def _with_surface_annotations(by_name, name: str, up_to: int) -> dict:
    raw = copy.deepcopy(record_to_json(by_name[name]))
    raw.setdefault("annotations", []).extend(_surface_fact(m) for m in range(1, up_to + 1))
    return raw


def _off_axis_fiber_d54(by_name) -> dict:
    # beta = 0; the fiber unit (1,2) skips (2,4) and row 2 is annotated below
    # it, so without one more column per off-axis unit the separation-level
    # witness would first show at (3,1), after the annotation at (3,0)
    raw = _zero_level_d54(by_name, keep_fiber=True)
    raw["tensor"]["entries"] = {"0,0,0": "1"}
    raw["degree"] = 27
    raw["annotations"] += [_surface_fact(1, 2, fiber=True)] + [
        _surface_fact(*c) for c in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 0))]
    return raw


class TestFiberClassMultiple:
    def test_needs_one_common_ratio(self):
        assert not _fiber_class_multiple(qvec([2, 3]), [qvec([1, 1])])
        assert _fiber_class_multiple(qvec([2, 2]), [qvec([1, 1])])
        assert _fiber_class_multiple(qvec([0, 3]), [qvec([0, 1])])

    def test_the_unit_itself_is_kept(self):
        assert not _fiber_class_multiple(qvec([0, 1]), [qvec([0, 1])])


class TestCurveViolationScan:
    def test_d62_lines_live_on_the_second_ray(self, by_name):
        assert curve_violation_scan(by_name["rank2-d62"]) == [qvec([0, 1])]

    def test_d30_lines_live_on_the_first_ray(self, by_name):
        assert curve_violation_scan(by_name["rank2-d30"]) == [qvec([1, 0])]

    def test_high_index_records_have_no_candidates(self, by_name):
        assert curve_violation_scan(by_name["rank1-P3"]) == []
        assert curve_violation_scan(by_name["rank1-quadric"]) == []

    def test_index_one_records_have_line_class(self, by_name):
        assert curve_violation_scan(by_name["rank1-r1-d10"]) == [qvec([1])]


class TestExceptionalSetAssembly:
    def test_fragment_merging(self):
        frags = [LocusFragment(fiber_index=1), LocusFragment(fiber_index=2),
                 LocusFragment(fiber_index=1)]
        assert assemble_exceptional_set(frags) == "union of singular fibers of f1 and f2"

    def test_text_only(self):
        assert assemble_exceptional_set([LocusFragment(text="D")]) == "D"

    def test_empty(self):
        assert assemble_exceptional_set([]) == "empty"

    def test_mixed(self):
        frags = [LocusFragment(fiber_index=1), LocusFragment(text="D")]
        assert assemble_exceptional_set(frags) == "union of singular fibers of f1 and D"


class TestVerifyAll:
    def test_builtin_passes(self, records):
        report = verify_all(records)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["unclassified"] == 1
        assert report["summary"]["pass"] == 25
        names = [row["name"] for row in report["results"]]
        assert names == sorted(names)

    def test_tampered_verdict_is_reported(self, records):
        rawset = [record_to_json(r) for r in records]
        for raw in rawset:
            if raw["name"] == "rank2-d62":
                raw["expected"]["verdict"] = "weakly balanced"
        tampered = [record_from_json(r) for r in rawset]
        report = verify_all(tampered)
        assert report["summary"]["fail"] == 1
        row = next(r for r in report["results"] if r["name"] == "rank2-d62")
        assert not row["match"]
        assert row["computed"] == "balanced"
        assert row["expected"] == "weakly balanced"

    def test_empty_list_is_vacuous(self):
        report = verify_all([])
        assert report["summary"] == {"pass": 0, "fail": 0, "unclassified": 0}
        assert report["results"] == []

    def test_unclassified_is_never_a_failure(self, by_name):
        rec = by_name["rank1-r1-d2"]
        report = verify_all([rec])
        assert report["summary"]["fail"] == 0
        assert report["summary"]["unclassified"] == 1
        assert report["results"][0]["computed"] == VERDICT_UNCLASSIFIED


class TestVerdictJson:
    def test_verdict_serializes(self, by_name):
        verdict = classify(by_name["rank2-d24"])
        data = verdict.to_json()
        assert data["level"] == "weakly balanced"
        assert data["exceptional_set"] == "union of singular fibers of f1"
        assert all(set(w) == {"description", "a", "b", "a_cmp", "b_cmp", "pessimistic"}
                   for w in data["witnesses"])
        assert isinstance(verdict, BalancedVerdict)
