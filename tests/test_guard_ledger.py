"""Every PropertyViolation guard in src/ against a ledger of the tests that fire it.

A guard is a `raise PropertyViolation(message, ...)` site in `src/llab`,
found with `ast` and keyed by its module and message; the fields of an
f-string message read as `{}`.  Each ledger entry names a test that makes
the guard raise, as `path::Class::test`; or gives, after "argued: ", the
reason the guard cannot fire on input the library builds, for a guard
kept because callers can reach it with their own input.  A guard implied
on every input, or on every input the library builds and no caller can
reach, is deleted instead: its argument sits beside the code and the guard
itself runs in the tests as a `reference_*` function.  The named tests were
found by recording, over a run of the suite, which test constructed each
guard's exception.  Adding, dropping or rewording a guard fails here until
the ledger changes with it, so every guard change shows in review.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGUED = "argued: "

LEDGER = {
    "expansion": {
        "forced normalizer condition failed on a proper carrier":
            ARGUED + "on a proper locality, a subcentric R that passes the"
            " overgroup and full-normalization legs has N_L(R) a subgroup"
            " whose fusion on N_S(R) is N_F(R), by the theory of elementary"
            " expansions (Chermak, Acta Math. 211 (2013); Henke, Trans. AMS"
            " 371 (2019)); kept because check_seed takes a caller's locality",
        "seed normalizer lost p-characteristic":
            ARGUED + "in the same setting N_L(R) is of characteristic p"
            " (Chermak 2013; Henke 2019); kept because check_seed takes a"
            " caller's locality",
        "empty witness set for a conjugate of the seed":
            "tests/test_expansion.py::TestWitnessSets::test_empty_witness_set_fires",
        "translated middle escaped the normalizer":
            "tests/test_expansion.py::TestTriplesAndSim"
            "::test_canonical_form_refuses_a_middle_outside_the_normalizer",
        "properness lost during growth":
            ARGUED + "an elementary expansion of a proper locality by a"
            " subcentric class is proper (Chermak 2013; Henke 2019); kept"
            " because elementary_expand takes a caller's locality and seed",
        "conjugation record mismatch on a fresh element":
            ARGUED + "for a fresh f with word w, U <= S_w <= S_f, and"
            " N_{S_f}(U) lies in S_w, so S_f > U would put an object in S_w"
            " and w in D; kept as the record that the grown fusion system"
            " and the dropped growth checks rest on",
        "restriction does not recover the base":
            "tests/test_expansion.py::TestRestrictionCut"
            "::test_cut_larger_than_the_base_fires",
        "lift does not cut back to the base subgroup":
            "tests/test_expansion.py::TestLiftIsTheNormalClosure"
            "::test_matches_into_the_one_shot_construction",
        "pushed object family is not closed: {}":
            ARGUED + "the pushed family is the object family of the quotient"
            " of the grown locality by the lifted subgroup (Chermak, Finite"
            " localities I, 2015), overgroup-closed and closed under the"
            " quotient's fusion system; kept because expand_quotient takes a"
            " caller's growth",
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
        "partial subgroup is not an ambient subgroup":
            "tests/test_locality.py::TestCarrierGuards"
            "::test_partial_subgroup_is_not_an_ambient_subgroup",
        "N_L(P) for an object P is not a subgroup":
            "tests/test_locality.py::TestNormalizersInside"
            "::test_guards_fire_on_a_carrier_missing_an_inverse",
        "C_L(P) for an object P is not a subgroup":
            "tests/test_locality.py::TestNormalizersInside"
            "::test_guards_fire_on_a_carrier_missing_an_inverse",
        "restriction broke properness":
            "tests/test_expansion.py::TestRestrictionCut::test_properness_guard_fires",
        "coset product is not representative-independent":
            "tests/test_locality.py::TestQuotientLocality"
            "::test_representative_dependence_detected",
        "quotient projection is not a homomorphism":
            "tests/test_locality.py::TestQuotientLocality::test_projection_guard_fires",
        "theta quotient changed the fusion system":
            ARGUED + "Theta meets S trivially, so L -> L/Theta maps S"
            " isomorphically onto its image and carries F onto the quotient's"
            " fusion system (Chermak, Finite localities I, 2015); kept for a"
            " caller's locality",
        "theta quotient is not proper":
            ARGUED + "L/Theta is a proper locality (Chermak 2015; Henke"
            " 2019); kept for a caller's locality, and verify tag 2.9"
            " reports this guard",
        "normalizer locality is not proper":
            ARGUED + "N_L(V) over the centric objects of N_F(V) is proper for"
            " a proper L and a fully normalized V (Chermak, Acta Math. 211"
            " (2013)); kept because normalizer_locality takes a caller's"
            " locality",
        "normalizer locality has the wrong fusion system":
            ARGUED + "in the same setting N_L(V) realizes N_F(V) (Chermak"
            " 2013); kept for a caller's locality",
        "centralizer locality is not proper":
            ARGUED + "C_L(V) over the centric objects of C_F(V) is proper for"
            " a proper L and a fully normalized V (Chermak 2013); kept for a"
            " caller's locality",
        "centralizer locality has the wrong fusion system":
            ARGUED + "in the same setting C_L(V) realizes C_F(V) (Chermak"
            " 2013); kept for a caller's locality",
        "intersection left the O^p family":
            ARGUED + "the intersection of the partial normal K with"
            " K(S cap N) = N has the same property (Chermak, Finite"
            " localities II, arXiv 1505.08110); kept for a caller's locality",
        "product of partial normals is not partial normal":
            ARGUED + "for partial normal M and N of a locality, MN is a"
            " partial subgroup and partial normal (Chermak, Finite"
            " localities I, 2015); is_partial_normal tests both; kept for a"
            " caller's locality",
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
        "Sylow growth left the p-world":
            ARGUED + "P is normal in P<g> and P<g>/P is a cyclic p-group,"
            " so P<g> is a p-group",
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


def test_no_guard_is_argued_from_an_unchecked_delta():
    # Locality checks that Delta is F-closed (O2) when it is built, so no
    # guard may be kept on the ground that a hand-built Delta is not
    assert [(mod, msg) for mod, entries in LEDGER.items()
            for msg, where in entries.items()
            if where.startswith(ARGUED) and "F-closed" in where
            and "not check" in where] == []
