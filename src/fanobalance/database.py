"""Curated database of Fano threefold models.

Covers the seventeen deformation types of Picard rank 1 (collapsed to one
record per (index, degree) pair) and the nine primitive rank-2 types, with
their intersection tables, extremal-ray data, geometric annotations, and
the expected classification verdicts.

Geometric annotations record facts the numeric criteria cannot derive
(which curve classes dominate, fiber types, irrationality of special
members); each carries a citation into the classical classification
literature.  The decision procedure consumes them as-is and never guesses.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cones import cone_from_generators, contains
from .errors import CorruptData, ParseError, SchemaVersionMismatch
from .intersection import DivisorClass, IntersectionTensor, eval_product
from .invariants import LARGER_CONE_FLAG, VarietyModel
from .linalg import QVector, dot, format_fraction, qvec, to_fraction

SCHEMA_VERSION = 1

RAY_TYPES = ("E1", "E2", "E3", "E4", "E5", "C1", "C2", "D1", "D2", "D3")

# length = minimal anticanonical degree of a rational curve on the ray
RAY_LENGTHS = {
    "E1": 1, "E2": 2, "E3": 1, "E4": 1, "E5": 1,
    "C1": 1, "C2": 2,
    "D1": 1, "D2": 2, "D3": 3,
}

RAY_NOTES = {
    "E1": "blow-down to a smooth curve; extremal curves are fibers of the ruled exceptional divisor",
    "E2": "blow-down of a plane to a smooth point; extremal curves are lines in the plane",
    "E3": "contraction of a smooth quadric to an ordinary double point; extremal curves are rulings",
    "E4": "contraction of a quadric cone to a double point; extremal curves are rulings",
    "E5": "contraction of a plane of normal degree -2 to a quadruple point; extremal curves are lines in the plane",
    "C1": "conic bundle with nonempty discriminant; extremal curves are components of singular fibers",
    "C2": "projectivization of a rank-2 bundle; extremal curves are fibers",
    "D1": "low-degree del Pezzo fibration over a line; extremal curves are lines in fibers",
    "D2": "quadric surface fibration over a line; extremal curves are lines in fibers",
    "D3": "plane fibration over a line; extremal curves are lines in fibers",
}

VERDICT_BALANCED = "balanced"
VERDICT_WEAKLY_BALANCED = "weakly balanced"
VERDICT_WEAKLY_A_BALANCED = "weakly a-balanced"
VERDICT_NONE = "none"
VERDICT_UNCLASSIFIED = "unclassified"
VERDICT_LEVELS = (
    VERDICT_BALANCED,
    VERDICT_WEAKLY_BALANCED,
    VERDICT_WEAKLY_A_BALANCED,
    VERDICT_NONE,
    VERDICT_UNCLASSIFIED,
)


class FactKind(str, enum.Enum):
    DOMINATING_CONIC_CLASS = "DominatingConicClass"
    DOMINATING_LINE_LOCUS = "DominatingLineLocus"
    FIBER_SURFACE_PROFILE = "FiberSurfaceProfile"
    CONIC_BUNDLE_LINE = "ConicBundleLine"
    EXCEPTIONAL_DIVISOR = "ExceptionalDivisor"
    NON_RATIONAL_FIBER = "NonRationalFiber"


@dataclass(frozen=True)
class LocusFragment:
    """One piece of an exceptional-set description.

    Either the singular fibers of the i-th contraction (merged across
    annotations when the set text is assembled) or a free-text locus.
    """

    fiber_index: int | None = None
    text: str | None = None

    def to_json(self) -> dict:
        if self.fiber_index is not None:
            return {"singular_fibers_of": self.fiber_index}
        return {"text": self.text}

    @classmethod
    def from_json(cls, data: dict) -> "LocusFragment":
        keys = set(data)
        if keys == {"singular_fibers_of"}:
            return cls(fiber_index=int(data["singular_fibers_of"]))
        if keys == {"text"}:
            return cls(text=str(data["text"]))
        raise ParseError(f"locus fragment: unexpected keys {sorted(keys)}")


@dataclass(frozen=True)
class ExtremalRay:
    ray_type: str
    length: int
    extremal_curve_note: str = ""

    def to_json(self) -> dict:
        out = {"type": self.ray_type, "length": self.length}
        if self.extremal_curve_note:
            out["note"] = self.extremal_curve_note
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ExtremalRay":
        extra = set(data) - {"type", "length", "note"}
        if extra:
            raise ParseError(f"extremal ray: unknown keys {sorted(extra)}")
        for key in ("type", "length"):
            if key not in data:
                raise ParseError(f"extremal ray: missing key '{key}'")
        return cls(ray_type=data["type"], length=int(data["length"]),
                   extremal_curve_note=data.get("note", ""))


@dataclass(frozen=True)
class GeometricFact:
    """A cited geometric input to the classifier.

    `a`/`b` store the invariants of the annotated object where known
    (b None means only the threshold side is certified).  `fiber_class`
    marks a divisor class that is a fiber of a fibration over a curve, so
    multiples >= 2 have no irreducible members and drop out of scans.
    """

    kind: FactKind
    citation: str
    curve_class: QVector | None = None
    divisor_class: QVector | None = None
    a: Fraction | None = None
    b: int | None = None
    fiber_class: bool = False
    locus: tuple[LocusFragment, ...] = ()

    def to_json(self) -> dict:
        payload: dict = {}
        if self.curve_class is not None:
            payload["curve_class"] = [format_fraction(c) for c in self.curve_class]
        if self.divisor_class is not None:
            payload["divisor_class"] = [format_fraction(c) for c in self.divisor_class]
        if self.a is not None:
            payload["a"] = format_fraction(self.a)
        if self.b is not None:
            payload["b"] = self.b
        if self.fiber_class:
            payload["fiber_class"] = True
        if self.locus:
            payload["locus"] = [f.to_json() for f in self.locus]
        return {"kind": self.kind.value, "payload": payload, "citation": self.citation}

    @classmethod
    def from_json(cls, data: dict) -> "GeometricFact":
        extra = set(data) - {"kind", "payload", "citation"}
        if extra:
            raise ParseError(f"annotation: unknown keys {sorted(extra)}")
        for key in ("kind", "payload", "citation"):
            if key not in data:
                raise ParseError(f"annotation: missing key '{key}'")
        try:
            kind = FactKind(data["kind"])
        except ValueError:
            raise ParseError(f"annotation: unknown kind {data['kind']!r}") from None
        payload = data["payload"]
        extra = set(payload) - {"curve_class", "divisor_class", "a", "b", "fiber_class", "locus"}
        if extra:
            raise ParseError(f"annotation payload: unknown keys {sorted(extra)}")
        return cls(
            kind=kind,
            citation=str(data["citation"]),
            curve_class=qvec(payload["curve_class"]) if "curve_class" in payload else None,
            divisor_class=qvec(payload["divisor_class"]) if "divisor_class" in payload else None,
            a=to_fraction(payload["a"]) if "a" in payload else None,
            b=int(payload["b"]) if payload.get("b") is not None else None,
            fiber_class=bool(payload.get("fiber_class", False)),
            locus=tuple(LocusFragment.from_json(f) for f in payload.get("locus", ())),
        )


@dataclass
class FanoRecord(VarietyModel):
    """A variety model extended with classification data and expectations."""

    index: int | None = None
    degree: int = 0
    rays: tuple[ExtremalRay, ...] = ()
    expected_a: Fraction = Fraction(1)
    expected_b: int = 0
    expected_verdict: str = VERDICT_UNCLASSIFIED
    expected_exceptional_set: str = ""

    @property
    def picard_rank(self) -> int:
        return self.rank


_RECORD_REQUIRED = {
    "schema_version", "name", "dim", "rank", "degree", "canonical", "tensor",
    "eff_generators", "curve_pairing", "expected",
}
_RECORD_OPTIONAL = {"index", "nef_generators", "rays", "annotations", "flags"}
_EXPECTED_KEYS = {"a", "b", "verdict", "exceptional_set"}


def record_from_json(data: dict) -> FanoRecord:
    if not isinstance(data, dict):
        raise ParseError("record: expected a JSON object")
    keys = set(data)
    missing = _RECORD_REQUIRED - keys
    if missing:
        raise ParseError(f"record: missing key '{sorted(missing)[0]}'")
    extra = keys - _RECORD_REQUIRED - _RECORD_OPTIONAL
    if extra:
        raise ParseError(f"record: unknown keys {sorted(extra)} (schema is closed)")
    if data["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"record {data.get('name', '?')}: schema version {data['schema_version']} "
            f"(supported: {SCHEMA_VERSION})")
    expected = data["expected"]
    if set(expected) != _EXPECTED_KEYS:
        raise ParseError(f"record {data['name']}: expected block must have keys "
                         f"{sorted(_EXPECTED_KEYS)}")
    if expected["verdict"] not in VERDICT_LEVELS:
        raise ParseError(f"record {data['name']}: unknown verdict {expected['verdict']!r}")
    rank = int(data["rank"])
    eff = cone_from_generators([qvec(g) for g in data["eff_generators"]], rank)
    nef = None
    if data.get("nef_generators") is not None:
        nef = cone_from_generators([qvec(g) for g in data["nef_generators"]], rank)
    return FanoRecord(
        name=str(data["name"]),
        dim=int(data["dim"]),
        rank=rank,
        canonical=DivisorClass(qvec(data["canonical"])),
        eff_cone=eff,
        nef_cone=nef,
        tensor=IntersectionTensor.from_json(data["tensor"]),
        curve_pairing=tuple(qvec(row) for row in data["curve_pairing"]),
        annotations=[GeometricFact.from_json(a) for a in data.get("annotations", [])],
        flags=tuple(data.get("flags", ())),
        index=int(data["index"]) if data.get("index") is not None else None,
        degree=int(data["degree"]),
        rays=tuple(ExtremalRay.from_json(r) for r in data.get("rays", [])),
        expected_a=to_fraction(expected["a"]),
        expected_b=int(expected["b"]),
        expected_verdict=str(expected["verdict"]),
        expected_exceptional_set=str(expected["exceptional_set"]),
    )


def record_to_json(rec: FanoRecord) -> dict:
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": rec.name,
        "dim": rec.dim,
        "rank": rec.rank,
        "degree": rec.degree,
        "canonical": rec.canonical.to_json(),
        "tensor": rec.tensor.to_json(),
        "eff_generators": [[format_fraction(c) for c in g] for g in rec.eff_cone.generators],
        "curve_pairing": [[format_fraction(c) for c in row] for row in rec.curve_pairing],
        "expected": {
            "a": format_fraction(rec.expected_a),
            "b": rec.expected_b,
            "verdict": rec.expected_verdict,
            "exceptional_set": rec.expected_exceptional_set,
        },
    }
    if rec.index is not None:
        out["index"] = rec.index
    if rec.nef_cone is not None:
        out["nef_generators"] = [[format_fraction(c) for c in g]
                                 for g in rec.nef_cone.generators]
    if rec.rays:
        out["rays"] = [r.to_json() for r in rec.rays]
    if rec.annotations:
        out["annotations"] = [a.to_json() for a in rec.annotations]
    if rec.flags:
        out["flags"] = list(rec.flags)
    return out


def validate(rec: FanoRecord) -> list[str]:
    """All violations of the record invariants; empty means healthy."""
    violations: list[str] = []
    anti = rec.anticanonical

    degree = eval_product(rec.tensor, [anti] * rec.dim)
    if degree != rec.degree:
        violations.append(f"degree mismatch: (-K)^{rec.dim} = {degree}, record says {rec.degree}")

    if rec.tensor.dim != rec.dim or rec.tensor.rank != rec.rank:
        violations.append("tensor shape disagrees with the model")

    if rec.rank == 2:
        if len(rec.rays) != 2:
            violations.append("rank-2 record needs exactly two extremal rays")
        else:
            for ray in rec.rays:
                if ray.ray_type not in RAY_LENGTHS:
                    violations.append(f"unknown ray type {ray.ray_type}")
                elif RAY_LENGTHS[ray.ray_type] != ray.length:
                    violations.append(
                        f"ray {ray.ray_type} has length {ray.length}, "
                        f"taxonomy says {RAY_LENGTHS[ray.ray_type]}")
            if len(rec.rays) == 2:
                mu1, mu2 = rec.rays[0].length, rec.rays[1].length
                if anti.coords != qvec([mu2, mu1]):
                    violations.append(
                        f"anticanonical mismatch: rays give {mu2}L1 + {mu1}L2, "
                        f"record stores {anti.coords}")
        swap = (qvec([0, 1]), qvec([1, 0]))
        if rec.curve_pairing != swap:
            violations.append("curve pairing is not the swap matrix")

    if rec.rank == 1:
        if rec.index is None or rec.index < 1:
            violations.append(f"rank-1 record needs a positive index, has {rec.index}")
        elif rec.canonical.coords != qvec([-rec.index]):
            violations.append(
                f"canonical class {rec.canonical.coords} disagrees with index {rec.index}")
        if rec.curve_pairing != (qvec([1]),):
            violations.append("curve pairing is not the identity")

    if not rec.eff_cone.is_pointed:
        violations.append("effective cone is not pointed")
    if rec.eff_cone.dim() != rec.rank:
        violations.append("effective cone is not full-dimensional")
    else:
        for lam in rec.eff_cone.facet_normals:
            if dot(lam, anti.coords) <= 0:
                violations.append("anticanonical class is not in the cone interior")
                break

    if rec.nef_cone is not None:
        for g in rec.nef_cone.generators:
            if not contains(rec.eff_cone, g):
                violations.append("nef cone is not contained in the effective cone")
                break

    for fact in rec.annotations:
        if not fact.citation.strip():
            violations.append(f"annotation {fact.kind.value} has an empty citation")
        for cls in (fact.curve_class, fact.divisor_class):
            if cls is not None and len(cls) != rec.rank:
                violations.append(f"annotation {fact.kind.value} class has wrong rank")

    if rec.expected_a != 1:
        violations.append(f"expected a is {rec.expected_a}, anticanonical entries must have 1")
    if rec.expected_b != rec.rank:
        violations.append(f"expected b is {rec.expected_b}, must equal the Picard rank {rec.rank}")
    if rec.expected_verdict not in VERDICT_LEVELS:
        violations.append(f"unknown verdict {rec.expected_verdict!r}")

    return violations


# ---------------------------------------------------------------------------
# builtin data
# ---------------------------------------------------------------------------

_Z_LINES = "surface swept out by anticanonical lines"

_CITE_LINES_R1 = ("the Hilbert scheme of anticanonical lines is of pure dimension one, "
                  "so the lines sweep out a surface (Shokurov; Iskovskikh ch. 3)")
_CITE_CONICS_R1 = "anticanonical conics exist and cover the variety (Iskovskikh ch. 3)"
_CITE_CONICS_R2 = ("curves of fundamental degree 1 form a two-dimensional family with "
                   "surjective evaluation (Iskovskikh: the Fano surface of conics)")
_CITE_P1_BUNDLE_FIBERS = "fibers of the bundle projection are anticanonical conics and cover the variety"
_CITE_CONIC_FIBERS = "general fibers of the conic bundle are anticanonical conics and cover the variety"
_CITE_SING_FIBERS = ("components of singular conic-bundle fibers are the anticanonical lines; "
                     "they sweep out the preimage of the discriminant curve")
_CITE_LINE_PULLBACK = ("the pullback of a general line under a conic bundle is a normal surface "
                       "with canonical singularities fibered in conics over the line: "
                       "invariants (1, 1)")


def _fact(kind: str, citation: str, curve=None, div=None, a=None, b=None,
          fiber=False, locus=()) -> dict:
    payload: dict = {}
    if curve is not None:
        payload["curve_class"] = [str(c) for c in curve]
    if div is not None:
        payload["divisor_class"] = [str(c) for c in div]
    if a is not None:
        payload["a"] = str(a)
    if b is not None:
        payload["b"] = b
    if fiber:
        payload["fiber_class"] = True
    if locus:
        payload["locus"] = list(locus)
    return {"kind": kind, "payload": payload, "citation": citation}


def _fibers(i: int) -> dict:
    return {"singular_fibers_of": i}


def _text(t: str) -> dict:
    return {"text": t}


def _rank1(name: str, index: int, degree: int, verdict: str, exceptional: str,
           annotations: list[dict]) -> dict:
    gen_cube = degree // index**3
    assert gen_cube * index**3 == degree
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "dim": 3,
        "rank": 1,
        "index": index,
        "degree": degree,
        "canonical": [str(-index)],
        "tensor": {"dim": 3, "rank": 1, "entries": {"0,0,0": str(gen_cube)}},
        "eff_generators": [["1"]],
        "nef_generators": [["1"]],
        "curve_pairing": [["1"]],
        "annotations": annotations,
        "expected": {"a": "1", "b": 1, "verdict": verdict, "exceptional_set": exceptional},
    }


def _rank2(name: str, ray1: str, ray2: str, cubes: tuple[int, int, int, int],
           degree: int, verdict: str, exceptional: str, annotations: list[dict],
           flags: tuple[str, ...] = ()) -> dict:
    mu1, mu2 = RAY_LENGTHS[ray1], RAY_LENGTHS[ray2]
    entry = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "dim": 3,
        "rank": 2,
        "degree": degree,
        "canonical": [str(-mu2), str(-mu1)],
        "tensor": {"dim": 3, "rank": 2, "entries": {
            "0,0,0": str(cubes[0]), "0,0,1": str(cubes[1]),
            "0,1,1": str(cubes[2]), "1,1,1": str(cubes[3]),
        }},
        "eff_generators": [["1", "0"], ["0", "1"]],
        "nef_generators": [["1", "0"], ["0", "1"]],
        "curve_pairing": [["0", "1"], ["1", "0"]],
        "rays": [
            {"type": ray1, "length": mu1, "note": RAY_NOTES[ray1]},
            {"type": ray2, "length": mu2, "note": RAY_NOTES[ray2]},
        ],
        "annotations": annotations,
        "expected": {"a": "1", "b": 2, "verdict": verdict, "exceptional_set": exceptional},
    }
    if flags:
        entry["flags"] = list(flags)
    return entry


def _r1_line_conic_annotations() -> list[dict]:
    return [
        _fact("DominatingLineLocus", _CITE_LINES_R1, curve=[1],
              locus=[_text(_Z_LINES)]),
        _fact("DominatingConicClass", _CITE_CONICS_R1, curve=[2], a=1, b=1),
    ]


def _builtin_raw() -> list[dict]:
    entries: list[dict] = []

    # --- Picard rank 1 -----------------------------------------------------
    entries.append(_rank1("rank1-P3", 4, 64, VERDICT_BALANCED, "empty", []))
    entries.append(_rank1("rank1-quadric", 3, 54, VERDICT_BALANCED, "empty", []))

    cite_elliptic_cone_r2 = (
        "fundamental members are del Pezzo surfaces: canonical singularities give a < 1; "
        "the elliptic-singularity member is a cone ruled over an elliptic curve, "
        "hence irrational, with invariants (1, 1)")
    for degree in (8, 16, 24, 32, 40):
        annotations = [
            _fact("DominatingConicClass", _CITE_CONICS_R1, curve=[1], a=1, b=1),
        ]
        if degree in (8, 16):
            annotations.append(
                _fact("NonRationalFiber", cite_elliptic_cone_r2, div=[1], a=1, b=1))
        verdict = VERDICT_WEAKLY_A_BALANCED if degree == 8 else VERDICT_WEAKLY_BALANCED
        entries.append(_rank1(f"rank1-r2-d{degree}", 2, degree, verdict, "empty", annotations))

    # index 1: degree 2 is the double solid with non-very-ample anticanonical
    # class; the classification leaves it open, so the record stays honest.
    entries.append(_rank1("rank1-r1-d2", 1, 2, VERDICT_UNCLASSIFIED, "", []))

    cite_quartic = (
        "normal quartic members with irrational singularities are cones over smooth "
        "plane quartics, swept by lines inside the line locus; all other members have "
        "nef adjoint, so only the threshold side is certified (Ishii-Nakayama)")
    d4_annotations = _r1_line_conic_annotations() + [
        _fact("NonRationalFiber", cite_quartic, div=[1], a=1, b=None),
    ]
    entries.append(_rank1("rank1-r1-d4", 1, 4, VERDICT_WEAKLY_A_BALANCED, _Z_LINES,
                          d4_annotations))

    for degree in (6, 8):
        entries.append(_rank1(f"rank1-r1-d{degree}", 1, degree, VERDICT_WEAKLY_A_BALANCED,
                              _Z_LINES, _r1_line_conic_annotations()))
    for degree in (10, 12, 14, 16, 18, 22):
        entries.append(_rank1(f"rank1-r1-d{degree}", 1, degree, VERDICT_WEAKLY_BALANCED,
                              _Z_LINES, _r1_line_conic_annotations()))

    # --- primitive Picard rank 2 -------------------------------------------
    entries.append(_rank2(
        "rank2-d62", "C2", "E5", (0, 1, 2, 4), 62, VERDICT_BALANCED, "D",
        [
            _fact("DominatingConicClass", _CITE_P1_BUNDLE_FIBERS, curve=[1, 0], a=1, b=1),
            _fact("DominatingLineLocus",
                  "anticanonical lines are the lines of the contracted plane",
                  curve=[0, 1], locus=[_text("D")]),
            _fact("ExceptionalDivisor",
                  "plane contracted to a quadruple point; its class is not a "
                  "nonnegative combination of L1 and L2",
                  locus=[_text("D")]),
        ],
        flags=(LARGER_CONE_FLAG,)))

    entries.append(_rank2(
        "rank2-d56", "C2", "E2", (0, 1, 1, 1), 56, VERDICT_BALANCED, "D",
        [
            _fact("DominatingConicClass", _CITE_P1_BUNDLE_FIBERS, curve=[1, 0], a=1, b=1),
            _fact("ExceptionalDivisor",
                  "plane blown down to a smooth point; its class is not a "
                  "nonnegative combination of L1 and L2",
                  locus=[_text("D")]),
        ],
        flags=(LARGER_CONE_FLAG,)))

    entries.append(_rank2(
        "rank2-d54", "C2", "D3", (0, 1, 0, 0), 54, VERDICT_BALANCED, "empty",
        [
            _fact("DominatingConicClass", _CITE_P1_BUNDLE_FIBERS, curve=[1, 0], a=1, b=1),
            _fact("FiberSurfaceProfile",
                  "fibers of the projection to the line are planes with the "
                  "anticanonical class restricting to three times a line: invariants (1, 1)",
                  div=[0, 1], a=1, b=1, fiber=True),
        ]))

    entries.append(_rank2(
        "rank2-d48", "C2", "C2", (0, 1, 1, 0), 48, VERDICT_BALANCED, "empty",
        [
            _fact("DominatingConicClass", _CITE_P1_BUNDLE_FIBERS, curve=[1, 0], a=1, b=1),
            _fact("DominatingConicClass", _CITE_P1_BUNDLE_FIBERS, curve=[0, 1], a=1, b=1),
        ]))

    entries.append(_rank2(
        "rank2-d30", "C1", "C2", (0, 2, 1, 0), 30, VERDICT_BALANCED,
        "union of singular fibers of f1",
        [
            _fact("DominatingConicClass", _CITE_CONIC_FIBERS, curve=[2, 0], a=1, b=1),
            _fact("DominatingConicClass", _CITE_P1_BUNDLE_FIBERS, curve=[0, 1], a=1, b=1),
            _fact("DominatingLineLocus", _CITE_SING_FIBERS, curve=[1, 0],
                  locus=[_fibers(1)]),
            _fact("ConicBundleLine", _CITE_LINE_PULLBACK, div=[1, 0], a=1, b=1),
        ]))

    entries.append(_rank2(
        "rank2-d24", "C1", "D2", (0, 2, 0, 0), 24, VERDICT_WEAKLY_BALANCED,
        "union of singular fibers of f1",
        [
            _fact("DominatingConicClass", _CITE_CONIC_FIBERS, curve=[2, 0], a=1, b=1),
            _fact("DominatingConicClass",
                  "rulings of the quadric fibers are anticanonical conics and cover the variety",
                  curve=[0, 1], a=1, b=1),
            _fact("DominatingLineLocus", _CITE_SING_FIBERS, curve=[1, 0],
                  locus=[_fibers(1)]),
            _fact("ConicBundleLine", _CITE_LINE_PULLBACK, div=[1, 0], a=1, b=1),
            _fact("FiberSurfaceProfile",
                  "smooth fibers of the quadric fibration are smooth quadrics: "
                  "invariants (1, 2); singular fibers are quadric cones with the "
                  "same threshold and smaller lattice",
                  div=[0, 1], a=1, b=2, fiber=True),
        ]))

    entries.append(_rank2(
        "rank2-d14", "C1", "E3", (0, 2, 2, 2), 14, VERDICT_BALANCED,
        "union of singular fibers of f1 and D",
        [
            _fact("DominatingConicClass", _CITE_CONIC_FIBERS, curve=[2, 0], a=1, b=1),
            _fact("DominatingLineLocus", _CITE_SING_FIBERS, curve=[1, 0],
                  locus=[_fibers(1)]),
            _fact("DominatingLineLocus",
                  "rulings of the contracted quadric are anticanonical lines "
                  "(the contraction may also hit a quadric cone: rulings likewise)",
                  curve=[0, 1], locus=[_text("D")]),
            _fact("ConicBundleLine", _CITE_LINE_PULLBACK, div=[1, 0], a=1, b=1),
            _fact("NonRationalFiber",
                  "members of |L2| are double planes branched along quartics: canonical "
                  "singularities give a < 1, and the irrational member is a cone ruled "
                  "over an elliptic curve with invariants (1, 1)",
                  div=[0, 1], a=1, b=1),
            _fact("ExceptionalDivisor",
                  "quadric contracted to a point of the branched double cover; its class "
                  "is not a nonnegative combination of L1 and L2",
                  locus=[_text("D")]),
        ],
        flags=(LARGER_CONE_FLAG,)))

    entries.append(_rank2(
        "rank2-d12", "C1", "C1", (0, 2, 2, 0), 12, VERDICT_BALANCED,
        "union of singular fibers of f1 and f2",
        [
            _fact("DominatingConicClass", _CITE_CONIC_FIBERS, curve=[2, 0], a=1, b=1),
            _fact("DominatingConicClass", _CITE_CONIC_FIBERS, curve=[0, 2], a=1, b=1),
            _fact("DominatingLineLocus", _CITE_SING_FIBERS, curve=[1, 0],
                  locus=[_fibers(1)]),
            _fact("DominatingLineLocus", _CITE_SING_FIBERS, curve=[0, 1],
                  locus=[_fibers(2)]),
            _fact("ConicBundleLine", _CITE_LINE_PULLBACK, div=[1, 0], a=1, b=1),
            _fact("ConicBundleLine", _CITE_LINE_PULLBACK, div=[0, 1], a=1, b=1),
        ]))

    entries.append(_rank2(
        "rank2-d6", "C1", "D1", (0, 2, 0, 0), 6, VERDICT_WEAKLY_A_BALANCED,
        "union of singular fibers of f1 and f2, and lines in general fibers of f2",
        [
            _fact("DominatingConicClass", _CITE_CONIC_FIBERS, curve=[2, 0], a=1, b=1),
            _fact("DominatingLineLocus", _CITE_SING_FIBERS, curve=[1, 0],
                  locus=[_fibers(1)]),
            _fact("DominatingLineLocus",
                  "lines in the degree-2 del Pezzo fibers are anticanonical lines; "
                  "across the base they sweep out a surface",
                  curve=[0, 1], locus=[_fibers(2), _text("lines in general fibers of f2")]),
            _fact("ConicBundleLine", _CITE_LINE_PULLBACK, div=[1, 0], a=1, b=1),
            _fact("FiberSurfaceProfile",
                  "general fibers of the second contraction are degree-2 del Pezzo "
                  "surfaces: invariants (1, 8)",
                  div=[0, 1], a=1, b=8, fiber=True),
        ]))

    return entries


def load_builtin() -> list[FanoRecord]:
    """Parse and validate the embedded record set (26 records)."""
    records = [record_from_json(raw) for raw in _builtin_raw()]
    for rec in records:
        problems = validate(rec)
        if problems:
            raise CorruptData(f"builtin record {rec.name}: {'; '.join(problems)}")
    return records


def builtin_record(name: str) -> FanoRecord:
    for rec in load_builtin():
        if rec.name == name:
            return rec
    raise KeyError(f"no builtin record named {name!r}")


def save_file(records: list[FanoRecord], path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "entries": [record_to_json(rec) for rec in records],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_file(path) -> list[FanoRecord]:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    extra = set(data) - {"schema_version", "entries"}
    if extra:
        raise ParseError(f"{path}: unknown keys {sorted(extra)} (schema is closed)")
    if "entries" not in data:
        raise ParseError(f"{path}: missing key 'entries'")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: schema version {data.get('schema_version')} "
                                    f"(supported: {SCHEMA_VERSION})")
    records = []
    for i, raw in enumerate(data["entries"]):
        try:
            records.append(record_from_json(raw))
        except ParseError as exc:
            raise type(exc)(f"{path}: entries[{i}]: {exc}") from None
    return records
