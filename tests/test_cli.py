import copy
import json

import pytest

from fanobalance.cli import main
from fanobalance.database import load_builtin, record_to_json, save_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestListShow:
    def test_list_names_all_records(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for name in ("rank1-P3", "rank2-d62", "rank2-d6"):
            assert name in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "show", "rank2-d62")
        assert code == 0
        assert "degree 62" in out
        assert "C2" in out and "E5" in out

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "show", "rank2-d63")
        assert code == 2
        assert "no record named" in err


class TestInv:
    def test_anticanonical_invariants(self, capsys):
        code, out, _ = run(capsys, "inv", "rank2-d62")
        assert code == 0
        assert "a = 1" in out
        assert "b = 2" in out

    def test_divisor_on_flagged_record_warns(self, capsys):
        code, out, err = run(capsys, "inv", "rank2-d62", "--divisor", "1,1")
        assert code == 0
        assert "low confidence" in err
        assert "a = " in out

    def test_boundary_divisor_is_an_input_error(self, capsys):
        # (0,1) sits on the stored cone boundary, so it is not big there
        code, _, err = run(capsys, "inv", "rank2-d62", "--divisor", "0,1")
        assert code == 2
        assert "interior" in err

    def test_unflagged_record_quiet(self, capsys):
        code, _, err = run(capsys, "inv", "rank2-d48", "--divisor", "1,1")
        assert code == 0
        assert "low confidence" not in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "inv", "rank2-d62", "--json", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data == {"a": "1", "adjoint": ["0", "0"], "b": 2,
                        "witness_facets": [0, 1]}


class TestClassify:
    def test_classify_human_output(self, capsys):
        code, out, _ = run(capsys, "classify", "rank2-d24")
        assert code == 0
        assert "weakly balanced" in out
        assert "union of singular fibers of f1" in out

    def test_verbose_lists_witnesses(self, capsys):
        code, out, _ = run(capsys, "-v", "classify", "rank2-d62")
        assert code == 0
        assert "dominating conic family" in out

    def test_scan_bound_flag_rejected(self, capsys):
        # the scanned box is read off each record; there is no size to set
        with pytest.raises(SystemExit) as exc:
            main(["classify", "rank2-d6", "--scan-bound", "7"])
        assert exc.value.code == 2
        assert "--scan-bound" in capsys.readouterr().err

    def test_unclassifiable_record_is_an_error(self, capsys):
        code, _, err = run(capsys, "classify", "rank1-r1-d2")
        assert code == 2
        assert "no annotation" in err

    def test_show_json_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        code, _, _ = run(capsys, "show", "rank2-d30", "--json", str(path))
        assert code == 0
        from fanobalance.database import record_from_json, builtin_record
        assert record_from_json(json.loads(path.read_text())) == builtin_record("rank2-d30")


class TestVerifyAll:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "verify-all")
        assert code == 0
        assert "0 mismatched" in out
        assert "all classified entries match" in out

    def test_json_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "verify-all", "--json", str(p1))[0] == 0
        assert run(capsys, "verify-all", "--json", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_tampered_database_fails_with_exit_1(self, capsys, tmp_path):
        records = load_builtin()
        rawset = [record_to_json(r) for r in records]
        for raw in rawset:
            if raw["name"] == "rank2-d24":
                raw["expected"]["verdict"] = "balanced"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"schema_version": 1, "entries": rawset}))
        code, out, _ = run(capsys, "--db", str(path), "verify-all")
        assert code == 1
        assert "MISMATCH" in out

    def test_invalid_record_fails_fast(self, capsys, tmp_path):
        records = load_builtin()
        rawset = [record_to_json(r) for r in records]
        for raw in rawset:
            if raw["name"] == "rank2-d62":
                raw["tensor"]["entries"]["1,1,1"] = "5"
                raw["degree"] = 62
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps({"schema_version": 1, "entries": rawset}))
        code, out, _ = run(capsys, "--db", str(path), "verify-all")
        assert code == 1
        assert "INVALID" in out

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run(capsys, "--db", str(path), "verify-all")
        assert code == 2
        assert "error" in err


class TestConeSubcommand:
    @pytest.fixture()
    def cone_file(self, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({
            "ambient_rank": 2,
            "generators": [["1", "0"], ["1", "2"]],
        }))
        return str(path)

    def test_dualize(self, capsys, cone_file):
        code, out, _ = run(capsys, "cone", cone_file, "--op", "dualize")
        assert code == 0
        data = json.loads(out)
        assert data["facets"] == [["0", "1"], ["2", "-1"]]

    def test_member(self, capsys, cone_file):
        code, out, _ = run(capsys, "cone", cone_file, "--op", "member", "1,1")
        assert code == 0
        assert out.strip() == "true"
        code, out, _ = run(capsys, "cone", cone_file, "--op", "member", "-1,0")
        assert out.strip() == "false"

    def test_face(self, capsys, cone_file):
        code, out, _ = run(capsys, "cone", cone_file, "--op", "face", "1,0")
        assert code == 0
        assert "codim = 1" in out

    def test_missing_vector_is_usage_error(self, capsys, cone_file):
        code, _, err = run(capsys, "cone", cone_file, "--op", "member")
        assert code == 2
        assert "vector" in err

    def test_face_of_nonmember_is_input_error(self, capsys, cone_file):
        code, _, err = run(capsys, "cone", cone_file, "--op", "face", "-1,0")
        assert code == 2
        assert "not a member" in err

    def test_unknown_op_rejected(self, capsys, cone_file):
        code, _, err = run(capsys, "cone", cone_file, "--op", "project", "1,0")
        assert code == 2
        assert "unknown cone operation" in err


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_divisor_of_wrong_rank(self, capsys):
        code, _, err = run(capsys, "inv", "rank2-d62", "--divisor", "1,2,3")
        assert code == 2
        assert "rank" in err

    def test_no_color_env_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code, out, _ = run(capsys, "verify-all")
        assert code == 0
        assert "\033[" not in out


class TestRoundtripViaCli:
    def test_saved_database_verifies(self, capsys, tmp_path, records):
        path = tmp_path / "copy.json"
        save_file(records, path)
        code, out, _ = run(capsys, "--db", str(path), "verify-all")
        assert code == 0
        assert "0 mismatched" in out
