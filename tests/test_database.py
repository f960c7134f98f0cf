import copy
import json

import pytest

from fanobalance.database import (
    RAY_LENGTHS,
    SCHEMA_VERSION,
    load_builtin,
    load_file,
    record_from_json,
    record_to_json,
    save_file,
    validate,
)
from fanobalance.errors import ParseError, SchemaVersionMismatch
from fanobalance.intersection import surface_restriction_form


class TestBuiltin:
    def test_record_count_and_partition(self, records):
        assert len(records) == 26
        rank1 = [r for r in records if r.rank == 1]
        rank2 = [r for r in records if r.rank == 2]
        assert len(rank1) == 17
        assert len(rank2) == 9

    def test_every_record_validates(self, records):
        for rec in records:
            assert validate(rec) == []

    def test_rank1_series(self, records):
        by_index = {}
        for rec in records:
            if rec.rank == 1:
                by_index.setdefault(rec.index, []).append(rec.degree)
        assert sorted(by_index[4]) == [64]
        assert sorted(by_index[3]) == [54]
        assert sorted(by_index[2]) == [8, 16, 24, 32, 40]
        assert sorted(by_index[1]) == [2, 4, 6, 8, 10, 12, 14, 16, 18, 22]

    def test_rank2_degree_multiset(self, records):
        degrees = sorted(r.degree for r in records if r.rank == 2)
        assert degrees == [6, 12, 14, 24, 30, 48, 54, 56, 62]

    def test_ray_lengths_match_taxonomy(self, records):
        for rec in records:
            for ray in rec.rays:
                assert ray.length == RAY_LENGTHS[ray.ray_type]

    def test_surface_form_goldens(self, by_name):
        published = {
            "rank2-d62": (12, 25),
            "rank2-d30": (9, 12),
            "rank2-d24": (8, 8),
            "rank2-d14": (6, 8),
            "rank2-d12": (6, 6),
            "rank2-d6": (4, 2),
        }
        derived = {
            "rank2-d56": (12, 16),
            "rank2-d54": (12, 9),
            "rank2-d48": (12, 12),
        }
        for name, form in {**published, **derived}.items():
            rec = by_name[name]
            assert surface_restriction_form(rec.tensor, rec.anticanonical) == form

    def test_annotations_cite_sources(self, records):
        for rec in records:
            for fact in rec.annotations:
                assert fact.citation.strip()

    def test_flagged_entries(self, by_name):
        for name in ("rank2-d62", "rank2-d56", "rank2-d14"):
            assert "larger_cone_possible" in by_name[name].flags
        assert "larger_cone_possible" not in by_name["rank2-d48"].flags


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path, records):
        path = tmp_path / "db.json"
        save_file(records, path)
        loaded = load_file(path)
        assert len(loaded) == len(records)
        for a, b in zip(sorted(loaded, key=lambda r: r.name),
                        sorted(records, key=lambda r: r.name)):
            assert record_to_json(a) == record_to_json(b)
            assert a == b

    def test_record_json_roundtrip(self, by_name):
        rec = by_name["rank2-d24"]
        assert record_from_json(record_to_json(rec)) == rec


class TestParseErrors:
    def test_missing_entries_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ParseError, match="entries"):
            load_file(path)

    def test_zero_denominator(self, tmp_path, records):
        raw = record_to_json(records[0])
        raw["canonical"] = ["1/0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "entries": [raw]}))
        with pytest.raises(ParseError, match="denominator"):
            load_file(path)

    def test_invalid_json_names_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line 1"):
            load_file(path)

    def test_unknown_record_field_rejected(self, records):
        raw = record_to_json(records[0])
        raw["future_field"] = 1
        with pytest.raises(ParseError, match="future_field"):
            record_from_json(raw)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                    "entries": [], "extra": 1}))
        with pytest.raises(ParseError, match="extra"):
            load_file(path)

    def test_schema_version_mismatch(self, records):
        raw = record_to_json(records[0])
        raw["schema_version"] = 2
        with pytest.raises(SchemaVersionMismatch):
            record_from_json(raw)

    def test_missing_record_key(self, records):
        raw = record_to_json(records[0])
        del raw["tensor"]
        with pytest.raises(ParseError, match="tensor"):
            record_from_json(raw)


def _tampered(by_name, name) -> dict:
    return copy.deepcopy(record_to_json(by_name[name]))


class TestFaultInjection:
    def test_tampered_tensor_entry_breaks_degree(self, by_name):
        raw = _tampered(by_name, "rank2-d62")
        raw["tensor"]["entries"]["1,1,1"] = "5"
        rec = record_from_json(raw)
        problems = validate(rec)
        assert any("degree mismatch" in p for p in problems)

    def test_swapped_ray_lengths_break_anticanonical(self, by_name):
        raw = _tampered(by_name, "rank2-d62")
        raw["rays"][0], raw["rays"][1] = raw["rays"][1], raw["rays"][0]
        rec = record_from_json(raw)
        problems = validate(rec)
        assert any("anticanonical mismatch" in p for p in problems)

    def test_wrong_ray_length_caught(self, by_name):
        raw = _tampered(by_name, "rank2-d54")
        raw["rays"][1]["length"] = 2  # D3 has length 3
        rec = record_from_json(raw)
        problems = validate(rec)
        assert any("taxonomy" in p for p in problems)

    def test_tampered_pairing_caught(self, by_name):
        raw = _tampered(by_name, "rank2-d30")
        raw["curve_pairing"] = [["1", "0"], ["0", "1"]]
        rec = record_from_json(raw)
        problems = validate(rec)
        assert any("swap" in p for p in problems)

    def test_rank1_pairing_must_be_identity(self, by_name):
        for entry in ("0", "-1"):
            raw = _tampered(by_name, "rank1-r1-d10")
            raw["curve_pairing"] = [[entry]]
            problems = validate(record_from_json(raw))
            assert any("identity" in p for p in problems), entry

    def test_rank1_index_must_be_positive(self, by_name):
        # a mirrored record: -K = -L on the cone spanned by -L
        raw = _tampered(by_name, "rank1-r1-d10")
        raw.update(index=-1, canonical=["1"], eff_generators=[["-1"]],
                   nef_generators=[["-1"]])
        raw["tensor"]["entries"] = {"0,0,0": "-10"}
        problems = validate(record_from_json(raw))
        assert problems == ["rank-1 record needs a positive index, has -1"]

    def test_tampered_expected_b_caught(self, by_name):
        raw = _tampered(by_name, "rank2-d48")
        raw["expected"]["b"] = 1
        rec = record_from_json(raw)
        problems = validate(rec)
        assert any("Picard rank" in p for p in problems)

    def test_builtin_is_not_accidentally_mutable(self):
        first = load_builtin()
        first[0].degree = 999
        second = load_builtin()
        assert second[0].degree != 999
