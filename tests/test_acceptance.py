"""Acceptance gate: one test per published criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failing assertion is the FAIL side.  Tolerances are exact
rational equality throughout; nothing is deferred to later calibration.
"""

import copy
import json
import random
import time
from fractions import Fraction

import pytest

from fanobalance.classifier import verify_all
from fanobalance.cli import main as cli_main
from fanobalance.cones import cone_from_facets, contains, nonneg_combination
from fanobalance.database import (
    record_from_json,
    record_to_json,
    validate,
)
from fanobalance.intersection import (
    CurveClass,
    DivisorClass,
    IntersectionTensor,
    divisor,
    eval_product,
    pair,
    surface_restriction_form,
)
from fanobalance.invariants import VarietyModel, a_invariant, b_invariant, zariski_decompose
from fanobalance.linalg import qvec

from oracles import (
    blown_up_plane_model,
    breakpoint_a_oracle,
    brute_zariski_positive,
    gj_determinant,
    random_full_dim_pointed_cone,
)


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


# --- criterion 1: classification reproduction --------------------------------

EXPECTED_VERDICTS = {
    "rank1-P3": "balanced",
    "rank1-quadric": "balanced",
    "rank1-r2-d8": "weakly a-balanced",
    "rank1-r2-d16": "weakly balanced",
    "rank1-r2-d24": "weakly balanced",
    "rank1-r2-d32": "weakly balanced",
    "rank1-r2-d40": "weakly balanced",
    "rank1-r1-d4": "weakly a-balanced",
    "rank1-r1-d6": "weakly a-balanced",
    "rank1-r1-d8": "weakly a-balanced",
    "rank1-r1-d10": "weakly balanced",
    "rank1-r1-d12": "weakly balanced",
    "rank1-r1-d14": "weakly balanced",
    "rank1-r1-d16": "weakly balanced",
    "rank1-r1-d18": "weakly balanced",
    "rank1-r1-d22": "weakly balanced",
    "rank2-d6": "weakly a-balanced",
    "rank2-d12": "balanced",
    "rank2-d14": "balanced",
    "rank2-d24": "weakly balanced",
    "rank2-d30": "balanced",
    "rank2-d48": "balanced",
    "rank2-d54": "balanced",
    "rank2-d56": "balanced",
    "rank2-d62": "balanced",
}


def test_criterion_1_classification_reproduction(records):
    started = time.monotonic()
    report = verify_all(records)
    elapsed = time.monotonic() - started

    assert report["summary"]["fail"] == 0
    by_name = {row["name"]: row for row in report["results"]}
    for name, expected in EXPECTED_VERDICTS.items():
        assert by_name[name]["computed"] == expected, name
        assert by_name[name]["match"], name
    # the non-very-ample double solid stays honest
    assert by_name["rank1-r1-d2"]["computed"] == "unclassified"
    assert elapsed < 5.0, f"verify-all took {elapsed:.2f}s"
    _report(1, f"all 25 classified records match, 0 mismatches, {elapsed:.2f}s")


# --- criterion 2: degree identities ------------------------------------------

def test_criterion_2_degree_identities(records):
    for rec in records:
        degree = eval_product(rec.tensor, [rec.anticanonical] * rec.dim)
        assert degree == rec.degree, rec.name
    t62 = IntersectionTensor(3, 2, {"0,0,1": 1, "0,1,1": 2, "1,1,1": 4})
    assert eval_product(t62, [divisor([1, 2])] * 3) == 62
    t54 = IntersectionTensor(3, 2, {"0,0,1": 1})
    assert eval_product(t54, [divisor([3, 2])] * 3) == 54
    _report(2, "(-K)^3 = d(X) exactly on all 26 records")


# --- criterion 3: linear-form goldens ----------------------------------------

def test_criterion_3_linear_form_goldens(by_name):
    surface_forms = {
        "rank2-d62": (12, 25),
        "rank2-d30": (9, 12),
        "rank2-d24": (8, 8),
        "rank2-d14": (6, 8),
        "rank2-d12": (6, 6),
        "rank2-d6": (4, 2),
    }
    for name, form in surface_forms.items():
        rec = by_name[name]
        assert surface_restriction_form(rec.tensor, rec.anticanonical) == form, name

    curve_forms = {"rank2-d62": (2, 1), "rank2-d30": (1, 2), "rank2-d24": (1, 2)}
    for name, (cn, cm) in curve_forms.items():
        rec = by_name[name]
        for n, m in [(1, 0), (0, 1), (3, 4), (7, 2)]:
            c = CurveClass(qvec([n, m]), rec.curve_pairing)
            assert pair(rec.anticanonical, c) == cn * n + cm * m, name
    _report(3, "surface forms and curve degree forms reproduce the tables exactly")


# --- criterion 4: base invariants --------------------------------------------

def test_criterion_4_base_invariants(records, by_name):
    for rec in records:
        assert a_invariant(rec, rec.anticanonical) == 1, rec.name
        assert b_invariant(rec, rec.anticanonical) == rec.rank, rec.name
    assert a_invariant(by_name["rank1-P3"], divisor([1])) == 4
    assert a_invariant(by_name["rank1-quadric"], divisor([1])) == 3
    _report(4, "a(X,-K)=1 and b(X,-K)=rho on all records; generator thresholds 4 and 3")


# --- criterion 5: oracle equivalence (property-based) -------------------------

def _random_model_on(cone, rng) -> tuple[VarietyModel, DivisorClass]:
    rank = cone.ambient_rank
    identity = tuple(tuple(Fraction(1 if i == j else 0) for j in range(rank))
                     for i in range(rank))
    model = VarietyModel(
        name="random",
        dim=3,
        rank=rank,
        canonical=DivisorClass(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rank))),
        eff_cone=cone,
        tensor=IntersectionTensor(3, rank, {}),
        curve_pairing=identity,
    )
    weights = [Fraction(rng.randint(1, 3)) for _ in cone.generators]
    interior = tuple(sum(w * g[i] for w, g in zip(weights, cone.generators))
                     for i in range(rank))
    return model, DivisorClass(interior)


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20240229)
    probes_checked = 0
    for _ in range(200):
        rank = rng.randint(2, 5)
        cone, rays = random_full_dim_pointed_cone(rng, rank, rng.randint(0, 8 - rank))

        model, big = _random_model_on(cone, rng)
        assert a_invariant(model, big) == breakpoint_a_oracle(model, big)

        roundtrip = cone_from_facets(list(cone.facet_normals), rank)
        for _ in range(100):
            probe = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rank))
            facet_side = contains(roundtrip, probe)
            generator_side = nonneg_combination(probe, rays) is not None
            assert facet_side == generator_side
            probes_checked += 1
    assert probes_checked == 20000
    _report(5, "200 random cones: facet-formula a equals breakpoint oracle; "
               "20000 membership probes agree")


# --- criterion 6: Zariski suite (property-based) ------------------------------

def test_criterion_6_zariski_suite():
    rng = random.Random(5150)
    for _ in range(50):
        n_points = rng.randint(1, 3)
        model, curve_data = blown_up_plane_model(n_points)
        curves = [c for c, _ in curve_data]
        gens = list(model.eff_cone.generators)
        weights = [Fraction(rng.randint(0, 3)) for _ in gens]
        d = DivisorClass(tuple(sum(w * g[i] for w, g in zip(weights, gens))
                               for i in range(model.rank)))
        z = zariski_decompose(model, d, curve_data)
        assert (z.positive + z.negative) == d

        def dot2(x, y):
            return eval_product(model.tensor, [x, y])

        for curve, coeff in z.support:
            assert dot2(z.positive, curve) == 0
            assert coeff >= 0
        support = [c for c, _ in z.support]
        gram = [[dot2(a, b) for b in support] for a in support]
        for k in range(1, len(support) + 1):
            minor = gj_determinant([row[:k] for row in gram[:k]])
            assert (-1) ** k * minor > 0

        brute = brute_zariski_positive(model, d, curves)
        assert brute.coords == z.positive.coords

        from fanobalance.invariants import a_invariant as a_of
        from fanobalance.invariants import adjoint_class, is_rigid_adjoint
        anti = -model.canonical
        a_val = a_of(model, anti)
        adjoint = adjoint_class(model, anti, a_val)
        rigid = is_rigid_adjoint(model, anti, curve_data)
        assert rigid == brute_zariski_positive(model, adjoint, curves).is_zero()
    _report(6, "50 surface fixtures: exact P+N, orthogonal support, negative-definite "
               "Gram, rigidity matches brute force")


# --- criterion 7: scaling laws -------------------------------------------------

def test_criterion_7_scaling_laws(records):
    rng = random.Random(8128)
    for rec in records:
        anti = rec.anticanonical
        a_base = a_invariant(rec, anti)
        b_base = b_invariant(rec, anti)
        for _ in range(20):
            c = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            scaled = c * anti
            assert a_invariant(rec, scaled) * c == a_base, rec.name
            assert b_invariant(rec, scaled) == b_base, rec.name
    _report(7, "a(X,cL)*c = a(X,L) and b(X,cL) = b(X,L) for 20 random scalings per record")


# --- criterion 8: fault injection ----------------------------------------------

def test_criterion_8_fault_injection(records, by_name, tmp_path, capsys):
    faults_caught = 0

    # fault 1: tampered tensor entry breaks the degree identity
    raw = copy.deepcopy(record_to_json(by_name["rank2-d62"]))
    raw["tensor"]["entries"]["1,1,1"] = "5"
    problems = validate(record_from_json(raw))
    assert any("degree mismatch" in p for p in problems)
    faults_caught += 1

    # fault 2: swapped ray lengths break the anticanonical identity
    raw = copy.deepcopy(record_to_json(by_name["rank2-d62"]))
    raw["rays"][0], raw["rays"][1] = raw["rays"][1], raw["rays"][0]
    problems = validate(record_from_json(raw))
    assert any("anticanonical mismatch" in p for p in problems)
    faults_caught += 1

    # fault 3: tampered expected verdict makes verify-all exit nonzero
    rawset = [record_to_json(r) for r in records]
    for entry in rawset:
        if entry["name"] == "rank2-d62":
            entry["expected"]["verdict"] = "weakly balanced"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": rawset}))
    exit_code = cli_main(["--db", str(path), "verify-all"])
    capsys.readouterr()
    assert exit_code == 1
    faults_caught += 1

    # fault 4: tampered pairing matrix is caught at validation time
    raw = copy.deepcopy(record_to_json(by_name["rank2-d30"]))
    raw["curve_pairing"] = [["1", "0"], ["0", "1"]]
    problems = validate(record_from_json(raw))
    assert any("swap" in p for p in problems)
    faults_caught += 1

    assert faults_caught >= 3
    _report(8, f"{faults_caught} distinct injected faults caught by validate()/verify-all")
