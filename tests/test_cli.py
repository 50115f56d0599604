"""Command line behavior: output shape, JSON determinism, exit codes."""

import json
import time
from pathlib import Path

import pytest

from llab import caps, checks, cli
from llab.errors import PropertyViolation
from llab.locality import Locality

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def group_arg(name):
    return str(DATA / f"{name}.json")


class TestClassify:
    def test_s4_families(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--group", group_arg("s4"), "--p", "2"
        )
        assert code == 0
        assert "classification of the 10 subgroups" in out
        assert "families: cr=2 c=4 q=9 s=10" in out
        # the radical-centric family is the Klein four and the full Sylow
        assert "cr: order 8" in out
        assert "order 4: <(1 2)(3 4), (1 3)(2 4)>" in out

    def test_s3_at_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--group", group_arg("s3"), "--p", "3"
        )
        assert code == 0
        assert "S of order 3" in out
        assert "families: cr=1 c=1 q=1 s=2" in out

    def test_order_two_group_trivial_table(self, capsys, tmp_path):
        gf = tmp_path / "c2.json"
        gf.write_text(json.dumps({"degree": 2, "generators": [[1, 0]]}))
        code, out, _ = run_cli(capsys, "classify", "--group", str(gf), "--p", "2")
        assert code == 0
        assert "classification of the 2 subgroups" in out
        assert "families: cr=1 c=1 q=2 s=2" in out

    def test_json_report_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys, "classify", "--group", group_arg("s4"), "--p", "2",
                "--json", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["command"] == "classify"
        assert len(payload["subgroups"]) == 10
        assert [s["order"] for s in payload["families"]["cr"]] == [8, 4]


class TestLocality:
    def test_c6_needs_quotient_to_become_proper(self, capsys):
        code, out, _ = run_cli(
            capsys, "locality", "--group", group_arg("c6"), "--p", "2",
            "--delta", "cr-closure",
        )
        assert code == 0
        assert "6 elements, 1 objects" in out
        assert "not proper" in out
        assert "kernel order 3, quotient of 2 elements, proper" in out

    def test_s5_centric_restriction(self, capsys):
        code, out, _ = run_cli(
            capsys, "locality", "--group", group_arg("s5"), "--p", "2",
            "--delta", "c",
        )
        assert code == 0
        assert "24 elements, 4 objects" in out
        assert "properness: proper" in out

    def test_axiom_sweep_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "locality", "--group", group_arg("s3"), "--p", "2",
            "--delta", "cr-closure", "--axiom-len", "4",
        )
        assert code == 0
        assert "axioms (length 4)" in out
        assert "pass" in out

    def test_axiom_sweep_report_on_a_partial_domain(self, capsys, tmp_path):
        target = tmp_path / "s5.json"
        code, _, _ = run_cli(
            capsys, "locality", "--group", group_arg("s5"), "--p", "2",
            "--delta", "q", "--axiom-len", "2", "--json", str(target),
        )
        assert code == 0
        axioms = json.loads(target.read_text())["axioms"]
        assert axioms == {"ok": True, "checked_words": 56 + 56**2}

    def test_json_payload_carries_theta(self, capsys, tmp_path):
        target = tmp_path / "c6.json"
        code, _, _ = run_cli(
            capsys, "locality", "--group", group_arg("c6"), "--p", "2",
            "--delta", "cr-closure", "--json", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["proper"] is False
        assert payload["theta"] == {
            "kernel_order": 3,
            "quotient_elements": 2,
            "quotient_proper": True,
        }


class TestExpand:
    def test_s5_growth_adds_objects_not_elements(self, capsys, tmp_path):
        target = tmp_path / "s5.json"
        code, out, _ = run_cli(
            capsys, "expand", "--group", group_arg("s5"), "--p", "2",
            "--delta", "c", "--delta-plus", "s", "--json", str(target),
        )
        assert code == 0
        assert "3 steps" in out
        assert "elements 24 -> 24 (0 new), objects 4 -> 10" in out
        assert "distinct from the direct construction (120 elements there)" in out
        payload = json.loads(target.read_text())
        assert payload["new_elements"] == 0
        assert payload["iso_to_oracle"] is False
        assert len(payload["steps"]) == 3

    def test_s4_growth_matches_direct_construction(self, capsys, tmp_path):
        target = tmp_path / "s4.json"
        code, out, _ = run_cli(
            capsys, "expand", "--group", group_arg("s4"), "--p", "2",
            "--delta", "cr-closure", "--delta-plus", "s", "--json", str(target),
        )
        assert code == 0
        assert "5 steps" in out
        assert "identified with the direct construction" in out
        assert json.loads(target.read_text())["iso_to_oracle"] is True

    def test_same_family_is_a_noop(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--group", group_arg("s4"), "--p", "2",
            "--delta", "s", "--delta-plus", "s",
        )
        assert code == 0
        assert "0 steps" in out
        assert "identified with the direct construction" in out


class TestVerify:
    def test_all_suites_pass_on_s3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", group_arg("s3"), "--p", "3")
        assert code == 0
        assert "22 passed, 0 failed" in out
        assert "FAIL" not in out

    def test_failing_suite_exits_three(self, capsys, monkeypatch):
        monkeypatch.setitem(checks.TAGS, "1.9", lambda ctx: (False, "forced"))
        code, out, _ = run_cli(capsys, "verify", "--group", group_arg("s3"), "--p", "3")
        assert code == 3
        assert "1.9    FAIL  forced" in out
        assert "21 passed, 1 failed" in out

    def test_corrupted_file_fails_before_suites(self, capsys, tmp_path):
        gf = tmp_path / "broken.json"
        gf.write_text('{"degree": ')
        code, _, err = run_cli(capsys, "verify", "--group", str(gf), "--p", "2")
        assert code == 1
        assert "not valid JSON" in err


class TestExitCodes:
    def test_missing_required_argument(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--p", "2")
        assert code == 1
        assert "error:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "explode", "--group", group_arg("s4"), "--p", "2")
        assert code == 1
        assert "invalid choice" in err

    def test_composite_p(self, capsys):
        code, _, err = run_cli(capsys, "locality", "--group", group_arg("s4"), "--p", "4")
        assert code == 1
        assert "must be a prime" in err

    def test_huge_mersenne_prime_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "classify", "--group", group_arg("s3"), "--p", str(2**61 - 1)
        )
        assert code == 0
        assert time.perf_counter() - start < 1.0
        assert "S of order 1" in out

    def test_huge_composite_p(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--group", group_arg("s3"), "--p", str(2**61 + 1)
        )
        assert code == 1
        assert "must be a prime" in err

    def test_p_beyond_exact_prime_test(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--group", group_arg("s3"), "--p", str(2**89 - 1)
        )
        assert code == 1
        assert "too large" in err

    def test_unknown_delta_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "locality", "--group", group_arg("s4"), "--p", "2",
            "--delta", "bogus",
        )
        assert code == 1

    def test_group_file_missing_fields(self, capsys, tmp_path):
        gf = tmp_path / "odd.json"
        gf.write_text(json.dumps({"degree": 3}))
        code, _, err = run_cli(capsys, "classify", "--group", str(gf), "--p", "2")
        assert code == 1
        assert "generators" in err

    @pytest.mark.parametrize("spec", [
        {"degree": 2, "generators": [[0, "a"]]},
        {"degree": 2, "generators": [[1.0, 0.0]]},
        {"degree": 2, "generators": [[True, False]]},
        {"degree": True, "generators": [[0]]},
    ], ids=["string-image", "float-images", "bool-images", "bool-degree"])
    def test_group_file_entries_must_be_integers(self, capsys, tmp_path, spec):
        gf = tmp_path / "typed.json"
        gf.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "classify", "--group", str(gf), "--p", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unwritable_json_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_cli(capsys, "classify", "--group", group_arg("s3"),
                                 "--p", "3", "--json", str(target))
        assert code == 1
        assert "S of order 3" in out
        assert err.startswith("error: cannot write report ")
        assert "Traceback" not in err
        assert not target.exists()

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("LLAB_CAPS", "group_order=10")
        monkeypatch.setattr(caps, "_current", None)  # drop the cached parse
        code, _, err = run_cli(capsys, "classify", "--group", group_arg("s4"), "--p", "2")
        assert code == 2
        assert "cap exceeded" in err

    def test_degree_refused_before_the_group_is_built(self, capsys, monkeypatch,
                                                       tmp_path):
        def build(degree, generators):
            raise AssertionError("group built past the degree cap")

        monkeypatch.setattr(cli, "group_from_generators", build)
        monkeypatch.setattr(caps, "_current", caps.Caps(degree=5))
        gf = tmp_path / "wide.json"
        gf.write_text(json.dumps({"degree": 6, "generators": []}))
        code, _, err = run_cli(capsys, "classify", "--group", str(gf), "--p", "2")
        assert code == 2
        assert "permutation degree exceeded cap of 5" in err

    def test_degree_at_the_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(caps, "_current", caps.Caps(degree=4))
        code, _, _ = run_cli(capsys, "classify", "--group", group_arg("s4"), "--p", "2")
        assert code == 0

    def test_property_violation_prints_its_witness(self, capsys, monkeypatch):
        def refuse(self):
            raise PropertyViolation("S is not a maximal p-subgroup of the carrier",
                                    witness=(3, 5))

        monkeypatch.setattr(Locality, "_check_s_maximal", refuse)
        code, out, err = run_cli(capsys, "locality", "--group", group_arg("s4"),
                                 "--p", "2")
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "property violation (library bug signal): "
            "S is not a maximal p-subgroup of the carrier",
            "witness: (3, 5)",
        ]

    def test_no_witness_line_without_a_witness(self, capsys, monkeypatch):
        def refuse(self):
            raise PropertyViolation("forced")

        monkeypatch.setattr(Locality, "_check_s_maximal", refuse)
        code, _, err = run_cli(capsys, "locality", "--group", group_arg("s4"),
                               "--p", "2")
        assert code == 3
        assert "witness" not in err
