"""Every PropertyViolation guard in src/ against a ledger of the tests that fire it.

A guard is a `raise PropertyViolation(message, ...)` site in `src/llab`,
found with `ast` and keyed by its module and message; the fields of an
f-string message read as `{}`.  Each ledger entry names a test that makes
the guard raise, as `path::Class::test`; or gives, after "argued: ", the
reason the guard cannot fire on input the library builds, for a guard
kept because callers can reach it with their own input or a report reads
it.  A guard implied on every input, or on every input the library builds
and no caller can reach, is deleted instead, and so is one implied by the
locality axioms, which every `Locality` is checked for when it is built.
The argument of a deleted guard sits beside the code, and the guard itself
runs in the tests as a `reference_*` function.  The named tests were found
by recording, over a run of the suite, which test constructed each guard's
exception.  Adding, dropping or rewording a guard fails here until
the ledger changes with it, so every guard change shows in review.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGUED = "argued: "

LEDGER = {
    "expansion": {
        "empty witness set for a conjugate of the seed":
            "tests/test_expansion.py::TestWitnessSets::test_empty_witness_set_fires",
        "translated middle escaped the normalizer":
            "tests/test_expansion.py::TestTriplesAndSim"
            "::test_canonical_form_refuses_a_middle_outside_the_normalizer",
        "conjugation record mismatch on a fresh element":
            ARGUED + "for a fresh f with word w, U <= S_w <= S_f, and"
            " N_{S_f}(U) lies in S_w, so S_f > U would put an object in S_w"
            " and w in D; kept as the record that the grown fusion system"
            " and the dropped growth checks rest on",
        "lift does not cut back to the base subgroup":
            "tests/test_expansion.py::TestLiftIsTheNormalClosure"
            "::test_matches_into_the_one_shot_construction",
        "pushed object family is not closed: {}":
            "tests/test_expansion.py::TestQuotientTower"
            "::test_unclosed_pushed_family_fires",
    },
    "fusion": {
        "no conjugate has both itself and its normalizer core fully normalized":
            ARGUED + "in a saturated system take V fully normalized and"
            " Q = O_p(N_F(V)); saturation gives a map a: N_S(Q) -> S with"
            " Q**a fully normalized, and N_S(V) <= N_S(Q), so V**a is fully"
            " normalized with core Q**a (Aschbacher-Kessar-Oliver, Fusion"
            " systems in algebra and topology, 2011, I.2.6); every system"
            " the library grows over belongs to a proper locality and is"
            " saturated; kept because a FusionSystem may be generated by a"
            " caller's maps",
    },
    "locality": {
        "O1 fails: member with S_g outside Delta":
            "tests/test_locality.py::TestCarrierGuards::test_o1_fails",
        "carrier is not inversion-closed":
            "tests/test_locality.py::TestCarrierGuards"
            "::test_carrier_is_not_inversion_closed",
        "S is not contained in the carrier":
            "tests/test_locality.py::TestCarrierGuards::test_s_is_not_in_the_carrier",
        "domain product escapes the carrier":
            "tests/test_locality.py::TestCarrierGuards::test_domain_product_escapes",
        "S is not a maximal p-subgroup of the carrier":
            "tests/test_locality.py::TestSMaximality"
            "::test_normal_c2_below_a_2_group_is_refused",
        "theta quotient is not proper":
            ARGUED + "L/Theta is a proper locality (Chermak 2015; Henke"
            " 2019); kept because verify tag 2.9 reports this guard",
    },
    "partial": {
        "maximal cosets fail to partition the carrier":
            "tests/test_partial.py::TestCosetsAndQuotients"
            "::test_overlapping_maximal_cosets_rejected",
    },
    "permgroup": {
        "Sylow growth stalled below the p-part":
            ARGUED + "a p-subgroup P that is not Sylow in a group H has"
            " p | [N_H(P) : P], so a Sylow p-subgroup of N_H(P) containing P"
            " holds a p-element outside P, which the scan finds",
    },
}


def _message(arg) -> str:
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in arg.values)
    return arg.value


def guard_sites() -> Counter:
    """(module, message) of every PropertyViolation raised in src/llab."""
    sites = Counter()
    for path in sorted((ROOT / "src" / "llab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "PropertyViolation":
                sites[path.stem, _message(node.exc.args[0])] += 1
    return sites


def test_ledger_matches_the_guards_in_src():
    sites = guard_sites()
    ledger = {(mod, msg) for mod, entries in LEDGER.items() for msg in entries}
    assert sorted(sites - Counter(ledger)) == [], "guards missing from the ledger"
    assert sorted(ledger - set(sites)) == [], "ledger entries with no guard"


def test_ledgered_tests_exist():
    for mod, entries in LEDGER.items():
        for msg, where in entries.items():
            if where.startswith(ARGUED):
                assert where[len(ARGUED):].strip(), (mod, msg)
                continue
            path, *scope = where.split("::")
            body = ast.parse((ROOT / path).read_text()).body
            for name in scope:
                node = next((n for n in body if getattr(n, "name", None) == name), None)
                assert node is not None, (mod, msg, where)
                body = getattr(node, "body", [])


def test_every_guard_is_ledgered():
    # an entry is a firing test, path::Class::test, or an argument
    assert [(mod, msg) for mod, entries in LEDGER.items()
            for msg, where in entries.items()
            if not (where.startswith(ARGUED) or where.startswith("tests/"))] == []


def test_no_guard_is_argued_from_a_callers_locality():
    # every Locality is checked when it is built, (O1), (O2), inversion,
    # domain products and S-maximality, so it is a locality, and a guard
    # whose theorem needs only the locality axioms is deleted, not kept
    assert [(mod, msg) for mod, entries in LEDGER.items()
            for msg, where in entries.items()
            if where.startswith(ARGUED) and "a caller's locality" in where] == []


def test_no_guard_is_argued_from_an_unchecked_delta():
    # Locality checks that Delta is F-closed (O2) when it is built, so no
    # guard may be kept on the ground that a hand-built Delta is not
    assert [(mod, msg) for mod, entries in LEDGER.items()
            for msg, where in entries.items()
            if where.startswith(ARGUED) and "F-closed" in where
            and "not check" in where] == []
