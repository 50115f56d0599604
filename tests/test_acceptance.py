"""Acceptance suite: nine end-to-end criteria, one terminal line each.

Criterion 4 is wired as an expected failure: the claimed strict element
growth cannot happen on this carrier (the base already realizes every
triple class), so the suite pins the actual behavior and keeps the
literal claim as a strict xfail.
"""

import json
import time
from functools import lru_cache
from pathlib import Path

import pytest

from llab.checks import run_tags
from llab.expansion import check_unique_iso, expand_quotient, full_expand, lift_normal
from llab.fusion import FusionSystem, fusion_from_group
from llab.locality import (
    is_proper,
    locality_from_group,
    o_p_locality,
    o_p_of,
    quotient_locality,
    resolve_delta_spec,
    restrict,
    theta_quotient,
)
from llab.partial import all_partial_normal_subgroups, check_axioms
from llab.permgroup import group_from_generators, perm_cycles, perm_order, sylow_p
from test_derived_facts import reference_tower_checks

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"
CORPUS = ("s3", "s4", "s5", "a4", "a5", "c6", "d8")


@lru_cache(maxsize=None)
def builtin(name):
    spec = json.loads((DATA / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


def combos():
    out = []
    for name in CORPUS:
        G = builtin(name)
        out.extend((name, G, p) for p in (2, 3, 5) if G.order % p == 0)
    return out


@lru_cache(maxsize=None)
def s5_centric():
    G = builtin("s5")
    F = fusion_from_group(G, 2)
    L = locality_from_group(G, 2, resolve_delta_spec(F, "c"))
    return G, F, L


@lru_cache(maxsize=None)
def s5_grown():
    G, F, L = s5_centric()
    return full_expand(L, resolve_delta_spec(F, "s"))


def is_even(perm) -> bool:
    return sum(len(c) - 1 for c in perm_cycles(perm)) % 2 == 0


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num}: {'pass' if ok else 'FAIL'} - {detail}")


def test_criterion_1_subgroup_classification(capsys):
    t0 = time.perf_counter()
    G = builtin("s4")
    F = fusion_from_group(G, 2)
    S = sylow_p(G.top, 2)
    cs = F.class_sets()

    assert [P.order for P in cs["cr"]] == [8, 4]
    klein_core = cs["cr"][1]
    assert klein_core.normalizer(S).order == 8  # normal in S
    assert all(perm_order(G.elements[x]) <= 2 for x in klein_core.members())

    # the other Klein four is centric but not radical
    other_klein = next(
        P for P in cs["c"]
        if P.order == 4 and P.mask != klein_core.mask
        and all(perm_order(G.elements[x]) <= 2 for x in P.members())
    )
    flags = F.classify(other_klein)
    assert flags.centric and not flags.radical

    center = S.centralizer(S)
    assert center.order == 2
    zflags = F.classify(center)
    assert zflags.quasicentric and not zflags.centric

    masks = {k: {P.mask for P in cs[k]} for k in ("cr", "c", "q", "s")}
    assert masks["cr"] <= masks["c"] <= masks["q"] <= masks["s"]
    assert F.is_f_closed(cs["s"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        capsys, 1, True,
        f"dihedral-on-8 classification: radical-centric = {{S, core Klein four}}, "
        f"second Klein four centric only, center quasicentric only, "
        f"families nest and the largest is closed ({elapsed:.2f}s)",
    )


def test_criterion_2_theta_quotient(capsys):
    t0 = time.perf_counter()
    G = builtin("c6")
    F = fusion_from_group(G, 2)
    L = locality_from_group(G, 2, resolve_delta_spec(F, "cr-closure"))
    assert len(L.delta.members) == 1 and L.delta.members[0].mask == L.S.mask
    assert not is_proper(L).ok

    theta, quotient = theta_quotient(L)
    assert theta.order == 3
    assert len(quotient.elements) == 2
    assert is_proper(quotient).ok

    trivial_before = L.fusion().same_homs(FusionSystem(L.S))
    Fq = quotient.fusion()
    trivial_after = Fq.same_homs(FusionSystem(quotient.S))
    assert trivial_before and trivial_after
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        capsys, 2, True,
        f"order-6 cyclic group over its Sylow 2: not proper, kernel of order 3, "
        f"proper quotient of order 2, fusion trivial on both sides ({elapsed:.2f}s)",
    )


def test_criterion_3_object_membership_equivalences(capsys):
    results = {}
    for name, G, p in combos():
        res = run_tags(G, p, tags=["2.8"])
        results[(name, p)] = res["2.8"]
    bad = {k: v for k, v in results.items() if not v["ok"]}
    assert not bad, bad
    report(
        capsys, 3, True,
        f"centric/radical/quasicentric membership matches the centralizer and "
        f"core tests object-by-object on {len(results)} group-prime pairs",
    )


def test_criterion_4_growth_roundtrip(capsys):
    G, F, L = s5_centric()
    fe = s5_grown()
    Lp = fe.locality
    direct = locality_from_group(G, 2, resolve_delta_spec(F, "s"))
    iso = check_unique_iso(Lp, direct)

    report(
        capsys, 4, False,
        "expected failure - growth adds objects (4 -> 10) but no elements "
        "(24 -> 24): the base already realizes every triple class; the "
        "120-element direct build is not proper and admits no identification "
        "over the base",
    )
    assert set(Lp.elements) == set(L.elements)
    assert len(Lp.delta.members) == 10
    assert is_proper(Lp).ok
    assert len(direct.elements) == 120
    assert not is_proper(direct).ok
    assert iso is None


@pytest.mark.xfail(
    strict=True,
    reason="growth over this carrier creates no new elements, and the "
    "120-element direct build is not proper, so no identification over "
    "the base exists",
)
def test_criterion_4_claimed_strict_growth():
    G, F, L = s5_centric()
    fe = s5_grown()
    direct = locality_from_group(G, 2, resolve_delta_spec(F, "s"))
    assert len(fe.locality.elements) > len(L.elements)
    assert check_unique_iso(fe.locality, direct) is not None


def test_criterion_5_normal_subgroup_bijection(capsys):
    G, F, L = s5_centric()
    Lp = s5_grown().locality
    S = L.S
    smask = set(S.members())

    base_normals = all_partial_normal_subgroups(L)
    assert sorted(N.order for N in base_normals) == [1, 4, 12, 24]
    lifts = {N: lift_normal(L, Lp, N) for N in base_normals}

    plus_normals = all_partial_normal_subgroups(Lp)
    assert {Np.members for Np in lifts.values()} == {
        Np.members for Np in plus_normals
    }
    assert len({Np.members for Np in lifts.values()}) == len(base_normals)

    carrier = set(L.elements)
    for N, Np in lifts.items():
        assert Np.members & carrier == N.members
        assert Np.members & smask == N.members & smask

    twelve = next(N for N in base_normals if N.order == 12)
    assert all(is_even(G.elements[x]) for x in twelve.members)
    assert twelve.members & smask == set(o_p_locality(L).members())
    assert len(twelve.members & smask) == 4
    report(
        capsys, 5, True,
        "closure lift is a bijection from the 4 partial normal subgroups of "
        "the base onto those of the grown locality, with intersection as "
        "inverse; S-parts preserved, the even-permutation kernel meeting S "
        "in the Klein four",
    )


def test_criterion_6_quotient_compatibility(capsys):
    G, F, L = s5_centric()
    twelve = next(
        N for N in all_partial_normal_subgroups(L) if N.order == 12
    )
    growth = full_expand(L, resolve_delta_spec(F, "s"))
    lq, lbarplus = expand_quotient(L, twelve, growth)
    assert len(lq.locality.elements) == len(lbarplus.elements) == 2
    assert reference_tower_checks(L, twelve, growth) == {
        "projection_verified": True,
        "extends_base_projection": True,
        "is_projection": True,
        "kernel_matches_lift": True,
        "normal_correspondence": True,
    }
    report(
        capsys, 6, True,
        "quotient by the order-12 kernel lifts through growth: the induced "
        "map exists, extends the base projection, is a projection, and its "
        "kernel is the lifted subgroup",
    )


def test_criterion_7_relative_cores(capsys):
    G, F, L = s5_centric()
    normals = all_partial_normal_subgroups(L)
    full = next(N for N in normals if N.order == len(L.elements))
    twelve = next(N for N in normals if N.order == 12)

    core = o_p_of(L, full)
    assert core.members == twelve.members
    assert all(is_even(G.elements[x]) for x in core.members)

    sweep = run_tags(G, 2, tags=["7.2", "7.3", "7.4"])
    bad = {k: v for k, v in sweep.items() if not v["ok"]}
    assert not bad, bad
    report(
        capsys, 7, True,
        "O^2 of the base is the even-permutation kernel of order 12; "
        "membership, lift-compatibility, and monotonicity of the relative "
        "cores hold over all enumerated partial normal subgroups",
    )


def test_criterion_8_inductive_and_generated(capsys):
    t0 = time.perf_counter()
    results = {}
    for name, G, p in combos():
        res = run_tags(G, p, tags=["6.1"])
        results[(name, p)] = res["6.1"]
    bad = {k: v for k, v in results.items() if not v["ok"]}
    assert not bad, bad
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        capsys, 8, True,
        f"fusion systems of all proper localities over {len(results)} "
        f"group-prime pairs are inductive, with normalizer and centralizer "
        f"systems generated by their radical-centric maps ({elapsed:.1f}s)",
    )


def test_criterion_9_axiom_sweeps(capsys):
    G4 = builtin("s4")
    F4 = fusion_from_group(G4, 2)
    L4 = locality_from_group(G4, 2, resolve_delta_spec(F4, "cr-closure"))

    G5, F5, L5 = s5_centric()
    wide = locality_from_group(G5, 2, resolve_delta_spec(F5, "all"))

    G6 = builtin("c6")
    F6 = fusion_from_group(G6, 2)
    L6 = locality_from_group(G6, 2, resolve_delta_spec(F6, "cr-closure"))

    klein = next(N for N in all_partial_normal_subgroups(L4) if N.order == 4)
    constructed = {
        "base locality": L4,
        "restriction": restrict(wide, resolve_delta_spec(F5, "c")),
        "theta quotient": theta_quotient(L6)[1],
        "quotient by Klein four": quotient_locality(L4, klein).locality,
        "grown locality": s5_grown().locality,
        "grown from radical closure": full_expand(
            L4, resolve_delta_spec(F4, "s")
        ).locality,
    }
    words = 0
    for label, pg in constructed.items():
        rep = check_axioms(pg, max_len=4)
        assert rep.ok and not rep.violations, (label, rep.summary())
        words += rep.checked_words
    report(
        capsys, 9, True,
        f"{len(constructed)} constructed partial groups (restriction, two "
        f"quotients, two growths) pass the word axioms to length 4, "
        f"{words} words checked, zero violations",
    )
