"""Fusion systems: homtable closure, classification, subsystems, quotients."""

import gc
import json
from pathlib import Path

import pytest

from llab import caps
from llab.errors import CapExceeded, InputError
from llab.fusion import (
    FHom,
    FusionMap,
    FusionSystem,
    _conj_keys,
    _inner_seeds,
    fusion_from_group,
    quotient_fusion_check,
)
from llab.permgroup import (
    Subgroup,
    group_from_generators,
    mask_of,
    subgroups_below,
    sylow_p,
)

BUILTIN_PAIRS = [
    ("a4", 2), ("a4", 3), ("a5", 2), ("a5", 3), ("a5", 5), ("c6", 2), ("c6", 3),
    ("d8", 2), ("s3", 2), ("s3", 3), ("s4", 2), ("s4", 3), ("s5", 2), ("s5", 3),
    ("s5", 5),
]

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"


def builtin(name):
    spec = json.loads((DATA / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


def conj_fhom(group, S, g):
    """Conjugation by g on S_g as an FHom, from the group's own conjugation."""
    dom = [x for x in S.members() if S.contains(group.conj(x, g))]
    return FHom(group, mask_of(dom), tuple(group.conj(x, g) for x in dom))


def distinct_keys(maps):
    return tuple(dict.fromkeys((h.dom_mask, h.images) for h in maps))


@pytest.fixture(scope="module")
def f_s4():
    return fusion_from_group(builtin("s4"), 2)


@pytest.fixture(scope="module")
def f_s5():
    return fusion_from_group(builtin("s5"), 2)


def _center(F):
    # the unique order-2 subgroup with full normalizer and 3 conjugates
    for P in F.subs:
        if P.order == 2 and P.normalizer(F.S).mask == F.S.mask:
            return P
    raise AssertionError("no central order-2 subgroup")


class TestClosure:
    def test_trivial_system_is_inner_only(self):
        group = builtin("d8")
        F = FusionSystem(sylow_p(group.top, 2))
        assert all(len(F.auts(P)) <= P.order for P in F.subs)
        assert F.o_p().mask == F.S.mask

    def test_v4_automizer_has_order_six(self, f_s4):
        assert len(f_s4.auts(f_s4.o_p())) == 6

    def test_c3_automizer_has_order_two(self):
        F = fusion_from_group(builtin("s3"), 3)
        assert len(F.auts(F.S)) == 2

    def test_bad_generator_rejected(self):
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        members = tuple(Subgroup(group, S.mask).members())
        scrambled = members[:-2] + (members[-1], members[-2])
        with pytest.raises(InputError):
            FusionSystem(S, [FHom(group, S.mask, scrambled)])

    def test_non_injective_generator_rejected(self):
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        with pytest.raises(InputError, match="injective"):
            FusionSystem(S, [FHom(group, S.mask, (0,) * S.order)])

    def test_generator_from_another_group_rejected(self):
        group, twin_group = builtin("s4"), builtin("s4")
        S = sylow_p(group.top, 2)
        with pytest.raises(InputError, match="different carrier group"):
            FusionSystem(S, [FHom(twin_group, S.mask, tuple(S.members()))])

    def test_generator_domain_not_a_subgroup_rejected(self):
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        a, b = S.members()[1:3]
        dom = 1 | 1 << a | 1 << b  # three elements: never a subgroup of a 2-group
        with pytest.raises(InputError, match="not a subgroup"):
            FusionSystem(S, [FHom(group, dom, (0, a, b))])

    def test_carrier_cap(self):
        group = builtin("s4")
        caps.override(caps.Caps(sylow_order=4))
        try:
            with pytest.raises(CapExceeded):
                fusion_from_group(group, 2)
        finally:
            caps.override(None)


class TestInterning:
    @pytest.mark.parametrize("name,p", BUILTIN_PAIRS)
    def test_derived_build_matches_validated_build(self, name, p):
        group = builtin(name)
        S = sylow_p(group.top, p)
        # a plain list is caller input, so every map goes through _validate
        validated = FusionSystem(S, [conj_fhom(group, S, g) for g in range(group.order)])
        group._memo.pop("fusion_tables")  # forget it: the derived build closes afresh
        derived = fusion_from_group(group, p, S)
        assert derived._table is not validated._table
        assert derived.same_homs(validated)

    @pytest.mark.parametrize("name,p", BUILTIN_PAIRS)
    def test_conjugation_keys_match_per_conjugator_maps(self, name, p):
        # the seed keys read off S's conjugation table are the distinct
        # (domain, images) of one FHom per conjugator, in first-seen order
        group = builtin(name)
        S = sylow_p(group.top, p)
        every = range(group.order)
        assert _conj_keys(S, every) == distinct_keys(conj_fhom(group, S, g) for g in every)
        assert _inner_seeds(S) == distinct_keys(conj_fhom(group, S, s) for s in S.members())

    def test_twins_share_normalizer_cache(self, f_s4):
        S = f_s4.S
        every_map = [h for P in f_s4.subs for h in f_s4.homs(P, S)]
        twin = FusionSystem(S, every_map)  # other seeds, the same closed table
        Z = _center(f_s4)
        assert twin._nsys_cache is f_s4._nsys_cache
        assert twin.normalizer_system(Z) is f_s4.normalizer_system(Z)
        inner = FusionSystem(S)
        assert not inner.same_homs(f_s4)
        assert inner._nsys_cache is not f_s4._nsys_cache

    def test_twins_share_o_p(self, monkeypatch):
        group = builtin("s4")
        F = fusion_from_group(group, 2)
        every_map = [h for P in F.subs for h in F.homs(P, F.S)]
        twin = FusionSystem(F.S, every_map)
        core = F.o_p()
        assert core.order == 4
        monkeypatch.setattr(FusionSystem, "_find_o_p",
                            lambda self: pytest.fail("o_p recomputed for a twin"))
        assert twin.o_p() == core

    def test_registry_empties_when_systems_are_dropped(self):
        group = builtin("s4")
        F = fusion_from_group(group, 2)
        F.class_sets()
        registry = group._memo["fusion_tables"]
        assert len(registry) > 0
        del F
        gc.collect()
        assert len(registry) == 0


class TestConjugatesAndClosureProperties:
    def test_s_is_self_conjugate_only(self, f_s4):
        assert f_s4.conjugates(f_s4.S) == (f_s4.S,)

    def test_double_transposition_class_has_three_members(self, f_s4):
        Z = _center(f_s4)
        conj = f_s4.conjugates(Z)
        assert len(conj) == 3
        assert all(P.order == 2 for P in conj)

    def test_v4_is_weakly_closed(self, f_s4):
        assert f_s4.is_weakly_closed(f_s4.o_p())

    def test_transposition_subgroup_not_strongly_closed(self, f_s4):
        P = next(
            P
            for P in f_s4.subs
            if P.order == 2 and len(f_s4.conjugates(P)) == 2
        )
        assert not f_s4.is_strongly_closed(P)
        assert f_s4.is_strongly_closed(f_s4.S)
        assert f_s4.is_strongly_closed(f_s4.o_p())

    def test_fully_normalized_examples(self, f_s4):
        assert f_s4.is_fully_normalized(f_s4.S)
        assert f_s4.is_fully_centralized(f_s4.S)
        Z = _center(f_s4)
        assert f_s4.is_fully_normalized(Z)
        others = [P for P in f_s4.conjugates(Z) if P.mask != Z.mask]
        assert all(not f_s4.is_fully_normalized(P) for P in others)


class TestSubsystems:
    def test_normalizer_of_trivial_is_whole_system(self, f_s4):
        triv = f_s4.subs[-1]
        assert triv.order == 1
        assert f_s4.same_homs(f_s4.normalizer_system(triv))

    def test_v4_is_normal(self, f_s4):
        V4 = f_s4.o_p()
        assert f_s4.is_normal_in_system(V4)
        assert f_s4.same_homs(f_s4.normalizer_system(V4))

    def test_centralizer_of_center_is_trivial_system_on_s(self, f_s4):
        Z = _center(f_s4)
        C = f_s4.centralizer_system(Z)
        assert C.S.mask == f_s4.S.mask
        assert C.same_homs(f_s4.trivial_on(f_s4.S))

    def test_o_p_values(self, f_s4, f_s5):
        assert f_s4.o_p().order == 4
        assert f_s5.o_p().order == 4
        a4 = builtin("a4")
        assert fusion_from_group(a4, 2).o_p().order == 4


class TestClassification:
    def test_s4_class_set_shapes(self, f_s4):
        cs = f_s4.class_sets()
        assert [P.order for P in cs["cr"]] == [8, 4]
        assert cs["cr"][1].mask == f_s4.o_p().mask
        assert [P.order for P in cs["c"]] == [8, 4, 4, 4]
        assert [P.order for P in cs["q"]] == [8, 4, 4, 4, 2, 2, 2, 2, 2]
        assert [P.order for P in cs["s"]] == [8, 4, 4, 4, 2, 2, 2, 2, 2, 1]

    def test_s5_class_set_shapes(self, f_s5):
        cs = f_s5.class_sets()
        assert {k: len(v) for k, v in cs.items()} == {
            "c": 4,
            "cr": 2,
            "q": 9,
            "s": 10,
        }

    def test_elementary_abelian_four_is_centric_not_radical(self, f_s4):
        # the order-4 subgroup generated by the two commuting 2-cycles
        E = next(
            P
            for P in f_s4.subs
            if P.order == 4
            and P.mask != f_s4.o_p().mask
            and all(f_s4.group.element_order(x) <= 2 for x in P.members())
        )
        flags = f_s4.classify(E)
        assert flags.centric and not flags.radical

    def test_center_is_quasicentric_not_centric(self, f_s4):
        flags = f_s4.classify(_center(f_s4))
        assert not flags.centric
        assert not flags.radical
        assert flags.quasicentric
        assert flags.subcentric

    def test_chain_on_group_systems(self):
        for name, p in [("s4", 2), ("s5", 2), ("s3", 2), ("s3", 3), ("a4", 2), ("c6", 2), ("d8", 2)]:
            F = fusion_from_group(builtin(name), p)
            cs = F.class_sets()
            cr = {P.mask for P in cs["cr"]}
            c = {P.mask for P in cs["c"]}
            q = {P.mask for P in cs["q"]}
            s = {P.mask for P in cs["s"]}
            assert cr <= c <= q <= s, name
            assert F.is_f_closed(cs["c"]), name
            assert F.is_f_closed(cs["s"]), name

    def test_centric_iff_small_centralizer_at_fully_centralized(self, f_s4):
        for P in f_s4.subs:
            if f_s4.is_fully_centralized(P):
                flags = f_s4._class_flags(P)
                assert flags[0] == P.centralizer(f_s4.S).le(P)

    def test_fully_normalized_implies_fully_centralized(self, f_s5):
        for P in f_s5.subs:
            if f_s5.is_fully_normalized(P):
                assert f_s5.is_fully_centralized(P)

    def test_core_times_subgroup_subcentric_pullback(self, f_s4, f_s5):
        for F in (f_s4, f_s5):
            s_masks = {P.mask for P in F.class_sets()["s"]}
            core = F.o_p()
            for P in F.subs:
                if core.join(P).mask in s_masks:
                    assert P.mask in s_masks

    def test_subcentric_via_centralizer_cores(self, f_s4):
        s_masks = {P.mask for P in f_s4.class_sets()["s"]}
        for V in f_s4.subs:
            if not f_s4.is_fully_centralized(V):
                continue
            C = f_s4.centralizer_system(V)
            core = C.o_p()
            assert (V.mask in s_masks) == C._class_flags(core)[0]


class TestFClosedAndInductive:
    def test_singleton_s_is_f_closed(self, f_s4):
        assert f_s4.is_f_closed([f_s4.S])

    def test_v4_alone_is_not_f_closed(self, f_s4):
        assert not f_s4.is_f_closed([f_s4.o_p()])

    def test_empty_not_f_closed(self, f_s4):
        assert not f_s4.is_f_closed([])

    def test_group_systems_inductive(self):
        for name, p in [("s4", 2), ("s3", 3), ("a4", 2), ("c6", 2)]:
            assert fusion_from_group(builtin(name), p).is_inductive(), name

    def test_group_systems_cr_generated(self):
        for name, p in [("s4", 2), ("s3", 3), ("a4", 2), ("d8", 2)]:
            assert fusion_from_group(builtin(name), p).is_cr_generated(), name

    def test_normalizer_transport_between_fully_normalized_conjugates(self, f_s4):
        """Fully normalized conjugates have matching normalizer systems."""
        for U in f_s4.subs:
            fn = [V for V in f_s4.conjugates(U) if f_s4.is_fully_normalized(V)]
            for V in fn:
                if V.mask == U.mask or not f_s4.is_fully_normalized(U):
                    continue
                nu, nv = U.normalizer(f_s4.S), V.normalizer(f_s4.S)
                movers = [
                    h
                    for h in f_s4.homs(nu, nv)
                    if h.restrict(U.mask).image_mask == V.mask
                ]
                assert movers
                phi = movers[0].mapping()
                NU, NV = f_s4.normalizer_system(U), f_s4.normalizer_system(V)
                for dom, rows in NU._table.items():
                    tdom = sum(1 << phi[x] for x in Subgroup(f_s4.group, dom).members())
                    transported = set()
                    for images in rows:
                        src = Subgroup(f_s4.group, dom).members()
                        moved = dict(zip((phi[x] for x in src), (phi[y] for y in images)))
                        transported.add(
                            tuple(moved[x] for x in Subgroup(f_s4.group, tdom).members())
                        )
                    assert transported == set(NV._table[tdom])


class TestGoodConjugate:
    def test_weakly_closed_returns_itself(self, f_s4):
        for P in (f_s4.S, f_s4.o_p()):
            assert f_s4.good_conjugate(P).mask == P.mask

    def test_double_transposition_class_selects_center(self, f_s4):
        Z = _center(f_s4)
        other = next(P for P in f_s4.conjugates(Z) if P.mask != Z.mask)
        assert f_s4.good_conjugate(other).mask == Z.mask


class TestQuotientFusionCheck:
    def test_identity_map_passes(self, f_s4):
        lam = FusionMap(f_s4, f_s4, {x: x for x in f_s4.S.members()})
        report = quotient_fusion_check(lam, f_s4, f_s4)
        assert report.ok, report.checks

    def test_collapse_to_point_passes(self):
        group = builtin("c6")
        F = fusion_from_group(group, 2)
        triv_group = group_from_generators(1, [])
        Fbar = fusion_from_group(triv_group, 2)
        lam = FusionMap(F, Fbar, {x: 0 for x in F.S.members()})
        report = quotient_fusion_check(lam, F, Fbar)
        assert report.ok, report.checks
