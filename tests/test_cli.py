"""Command line behavior: output shape, JSON determinism, exit codes."""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from llab import caps, checks, cli, expansion, partial
from llab.errors import PropertyViolation
from llab.locality import Locality
from llab.permgroup import FiniteGroup
from test_partial import AGL_1_8

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

    def test_theta_line_gives_the_reason_it_does_not_apply(self, capsys, tmp_path):
        # every subgroup of S is an object, and some lie outside F^q
        target = tmp_path / "s4.json"
        code, out, _ = run_cli(
            capsys, "locality", "--group", group_arg("s4"), "--p", "2",
            "--delta", "all", "--json", str(target),
        )
        assert code == 0
        assert ("theta quotient: not applicable: theta quotient needs Delta"
                " inside F^q") in out.splitlines()
        assert json.loads(target.read_text())["theta"] is None


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

    def test_s4_growth_matches_direct_construction(self, capsys, tmp_path, monkeypatch):
        # the identification reads full_expand's argument: no carrier is
        # regenerated from the base
        calls = []
        sweep = partial.generated_subgroup

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        for mod in (partial, expansion, cli):
            monkeypatch.setattr(mod, "generated_subgroup", counted, raising=False)
        target = tmp_path / "s4.json"
        code, out, _ = run_cli(
            capsys, "expand", "--group", group_arg("s4"), "--p", "2",
            "--delta", "cr-closure", "--delta-plus", "s", "--json", str(target),
        )
        assert code == 0
        assert "5 steps" in out
        assert "identified with the direct construction" in out
        assert json.loads(target.read_text())["iso_to_oracle"] is True
        assert calls == []

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

    def test_agl_1_8_towers_are_not_capped(self, capsys, tmp_path):
        # order 168: the towers' homomorphisms between groups are decided by
        # pairs, so the word cap, which counts 168 + 168**2 + 168**3 words,
        # does not apply
        gf = tmp_path / "agl_1_8.json"
        gf.write_text(json.dumps({"degree": 8, "generators": AGL_1_8}))
        code, out, err = run_cli(capsys, "verify", "--group", str(gf), "--p", "2")
        assert (code, err) == (0, "")
        assert "22 passed, 0 failed" in out

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

    @pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"),
                                       OSError(28, "No space left on device")])
    def test_unwritable_stdout_still_writes_the_report(self, capsys, monkeypatch,
                                                       tmp_path, error):
        # `llab classify ... | head -1` and `llab classify ... > /dev/full`
        class Unwritable:
            def write(self, text):
                raise error

            def flush(self):
                pass

        target = tmp_path / "report.json"
        argv = ["classify", "--group", group_arg("s3"), "--p", "3"]
        monkeypatch.setattr("sys.stdout", Unwritable())
        code = cli.main([*argv, "--json", str(target)])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: cannot write to stdout: {error}\n"
        # the report is the one a writable stdout gets
        again = tmp_path / "again.json"
        assert run_cli(capsys, *argv, "--json", str(again))[0] == 0
        assert target.read_bytes() == again.read_bytes()

    def test_a_closed_pipe_leaves_nothing_to_fail_at_exit(self, capsys, monkeypatch):
        # stdout on a pipe whose reader is gone: the unwritten text stays in
        # the stream's buffer, and closing the stream, as the interpreter
        # does at exit, flushes it into os.devnull
        read_end, write_end = os.pipe()
        os.close(read_end)
        stream = open(write_end, "w")
        monkeypatch.setattr("sys.stdout", stream)
        code = cli.main(["classify", "--group", group_arg("s4"), "--p", "2"])
        monkeypatch.undo()
        stream.close()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write to stdout: ")

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("LLAB_CAPS", "group_order=10")
        monkeypatch.setattr(caps, "_current", None)  # drop the cached parse
        code, _, err = run_cli(capsys, "classify", "--group", group_arg("s4"), "--p", "2")
        assert code == 2
        assert "cap exceeded" in err

    def test_raised_sylow_cap_classifies_at_the_given_p(self, capsys, tmp_path):
        # C3^4, four disjoint 3-cycles on 12 points: S is the whole group,
        # of order 81, above the default sylow_order cap of 64
        gens = []
        for k in range(0, 12, 3):
            g = list(range(12))
            g[k:k + 3] = [k + 1, k + 2, k]
            gens.append(g)
        gf = tmp_path / "c3_4.json"
        gf.write_text(json.dumps({"degree": 12, "generators": gens}))
        code, out, err = run_cli(capsys, "classify", "--group", str(gf), "--p", "3")
        assert (code, out) == (2, "")
        assert "fusion carrier order exceeded cap of 64" in err
        caps.override(caps.Caps(sylow_order=81))
        try:
            code, out, err = run_cli(capsys, "classify", "--group", str(gf), "--p", "3")
        finally:
            caps.override(None)
        assert (code, err) == (0, "")
        assert "order 81, degree 12, p=3, S of order 81" in out
        assert "classification of the 212 subgroups of S" in out

    def test_unknown_cap_entry(self, capsys, monkeypatch):
        # the full-domain axiom table check counts against axiom_words
        monkeypatch.setenv("LLAB_CAPS", "axiom_table=10")
        monkeypatch.setattr(caps, "_current", None)
        code, out, err = run_cli(capsys, "classify", "--group", group_arg("s4"), "--p", "2")
        assert code == 1
        assert out == ""
        assert err == "error: LLAB_CAPS: unknown entry 'axiom_table=10'\n"

    @pytest.mark.parametrize("entry", ["degree=-5", "group_order=0", "sylow_order=0"])
    def test_cap_below_one_is_an_input_error(self, capsys, monkeypatch, entry):
        # no input fits a cap below 1, so the entry is refused, not the input
        monkeypatch.setenv("LLAB_CAPS", entry)
        monkeypatch.setattr(caps, "_current", None)
        code, out, err = run_cli(capsys, "classify", "--group", group_arg("s4"), "--p", "2")
        assert code == 1
        assert out == ""
        key = entry.partition("=")[0]
        assert err == f"error: LLAB_CAPS: {key} must be at least 1, got {entry!r}\n"

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


class TestNoReferenceCycles:
    """A finished job leaves no group for the cycle collector: every cache
    that outlives a step holds masks, members or weak references, never a
    path back to the object that holds it."""

    @staticmethod
    def groups_left(capsys, *argv):
        gc.collect()
        gc.disable()
        try:
            # strong references, so no survivor can reuse a live group's id
            before = [o for o in gc.get_objects() if isinstance(o, FiniteGroup)]
            seen = {id(o) for o in before}
            code, _, _ = run_cli(capsys, *argv)
            left = sum(isinstance(o, FiniteGroup) and id(o) not in seen
                       for o in gc.get_objects())
        finally:
            gc.enable()
        return code, left

    @pytest.mark.parametrize("command", ["classify", "locality", "expand"])
    @pytest.mark.parametrize("name,p", [("s5", 2), ("a5", 3), ("s4", 2)])
    def test_job_frees_its_groups(self, capsys, command, name, p):
        assert self.groups_left(capsys, command, "--group", group_arg(name),
                                "--p", str(p)) == (0, 0)

    def test_verify_frees_its_groups(self, capsys):
        assert self.groups_left(capsys, "verify", "--group", group_arg("a5"),
                                "--p", "3") == (0, 0)
