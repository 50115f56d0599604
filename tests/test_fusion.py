"""Fusion systems: homtable closure, classification, subsystems, quotients."""

import gc
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bench.workloads import generated_groups
from llab import caps, cli, fusion
from llab.errors import CapExceeded, InputError
from llab.fusion import (
    FHom,
    FusionMap,
    FusionSystem,
    _conj_keys,
    _inner_seeds,
    _Restrictions,
    conjugation_fusion,
    fusion_from_group,
    quotient_fusion_check,
)
from llab.locality import is_proper, locality_from_group, resolve_delta_spec
from llab.permgroup import (
    Subgroup,
    group_from_generators,
    mask_of,
    perm_order,
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


def any_group(name):
    """A built-in group, or one of the benchmark's generated groups."""
    if (DATA / f"{name}.json").exists():
        return builtin(name)
    spec = generated_groups()[name]
    return group_from_generators(spec["degree"], spec["generators"])


def conj_fhom(group, S, g):
    """Conjugation by g on S_g as an FHom, from the group's own conjugation."""
    dom = [x for x in S.members() if group.conj(x, g) in S]
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

    @pytest.mark.parametrize("order,images", [(8, 3), (2, 3)],
                             ids=["three-images-on-s", "three-images-on-order-2"])
    def test_generator_not_matching_its_domain_rejected(self, order, images):
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        P = next(P for P in subgroups_below(S) if P.order == order)
        with pytest.raises(InputError, match="^generator map does not match its domain$"):
            FusionSystem(S, [FHom(group, P.mask, tuple(S.members()[:images]))])

    def test_inverse_of_a_caller_map_is_in_the_table(self):
        # Z(D8) -> another order-2 subgroup Q of S4's D8: D8's inner maps
        # fix Z(D8) and keep Q's class away from it, so no composite of them
        # and the given map sends Q into Z(D8); only the inverse step does
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        F = FusionSystem(S)
        Z = _center(F)
        Q = next(P for P in F.subs if P.order == 2 and P.mask != Z.mask)
        E = FusionSystem(S, [FHom(group, Z.mask, tuple(Q.members()))])
        assert [h.images for h in E.isos(Q, Z)] == [tuple(Z.members())]
        assert [h.images for h in F.isos(Q, Z)] == []

    def test_composite_pass_is_capped(self):
        # every composite is a map of the table, so fusion_maps bounds the
        # pass before the table is built
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        seeds = (*_inner_seeds(S), *_conj_keys(S, range(group.order)))
        found = FusionSystem._composites(seeds, caps.current().fusion_maps)
        with pytest.raises(CapExceeded, match="^fusion homtable exceeded cap of"):
            FusionSystem._composites(seeds, len(found) - 1)

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
        derived = fusion_from_group(group, p)
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

    @pytest.mark.parametrize("name,p", [*BUILTIN_PAIRS, ("d16", 2), ("c5xc5", 5),
                                        ("s6", 3), ("s7", 7)])
    def test_group_seeds_equal_the_whole_group_sweep(self, name, p, monkeypatch):
        # fusion_from_group conjugates by one element per coset C_G(S)g;
        # its seed keys are those of every g.  The registry keys a seed set
        # as a frozenset and a restriction table is the same set of maps in
        # any key order, so the order of the keys is not read.
        group = any_group(name)
        S = sylow_p(group.top, p)
        passed = []
        real = fusion.group_fusion

        def spy(S, conjugators):
            passed.append(conjugators)
            return real(S, conjugators)

        monkeypatch.setattr(fusion, "group_fusion", spy)
        fusion_from_group(group, p)
        [conjugators] = passed
        # C_G(S) by the G.conj sweep; a module-level import would be circular
        from test_derived_facts import reference_stabilizer
        centralizer = reference_stabilizer(S, group.top, True)
        assert len(conjugators) == group.order // centralizer.order
        keys = _conj_keys(S, conjugators)
        assert len(keys) == len(set(keys))
        assert set(keys) == set(_conj_keys(S, range(group.order)))

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


def close_callers(monkeypatch):
    """Wrap FusionSystem._composites, the closure step of generated systems;
    each call appends who asked for it: "is_cr_generated", "partial-domain
    fusion" or "full-domain fusion" for Locality.fusion, or None for any
    other caller."""
    seen = []
    real = FusionSystem._composites

    def spy(keys, cap):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in ("is_cr_generated", "fusion"):
            frame = frame.f_back
        if frame is None:
            seen.append(None)
        elif frame.f_code.co_name == "is_cr_generated":
            seen.append("is_cr_generated")
        else:
            full = frame.f_locals["self"].full_domain
            seen.append(f"{'full' if full else 'partial'}-domain fusion")
        return real(keys, cap)

    monkeypatch.setattr(FusionSystem, "_composites", staticmethod(spy))
    return seen


def run_quietly(*argv):
    with redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


class TestRestrictionTables:
    """Which systems are read as restrictions and which are closed."""

    def test_restrictions_of_a_non_group_are_not_closed(self):
        # D8 and one 4-cycle of S4 outside it are not a group: conjugation by
        # them, restricted, misses maps that their composites give (all of
        # F_S(S4) here, 28 maps against 23)
        group = builtin("s4")
        S = sylow_p(group.top, 2)
        g = next(g for g in range(group.order)
                 if g not in S and group.mult(g, g) != 0
                 and group.mult(group.mult(g, g), group.mult(g, g)) == 0)
        keys = _conj_keys(S, [*S.members(), g])
        restricted = FusionSystem(S, _Restrictions(keys))
        closed = conjugation_fusion(S, [g])
        assert restricted._closed.key() < closed._closed.key()
        assert (restricted._closed.size, closed._closed.size) == (23, 28)
        assert closed.same_homs(fusion_from_group(group, 2))

    def test_partial_domain_locality_takes_the_group_system(self, monkeypatch):
        # F^q holds F^cr, so by Alperin's theorem L's system is F_S(G),
        # handed on with no closure
        group = builtin("s5")
        F = fusion_from_group(group, 2)
        L = locality_from_group(group, 2, resolve_delta_spec(F, "q"))
        assert not L.full_domain
        seen = close_callers(monkeypatch)
        assert L.fusion()._closed is F._closed
        assert seen == []
        assert conjugation_fusion(L.S, L.elements).same_homs(L.fusion())

    def test_locality_without_f_cr_closes_by_composition(self, monkeypatch):
        # Delta: the overgroups of the transposition class of <(4 5)>, of
        # orders 8, 4, 2, 2; the order-4 member <(2 3)(4 5), (2 4)(3 5)> of
        # F^cr is missing, so F(L) is smaller than F_S(S5) and is closed here
        group = builtin("s5")
        F = fusion_from_group(group, 2)
        T = next(P for P in F.subs if P.gens_str() == "(4 5)")
        delta = [Q for Q in F.subs
                 if any(V.mask & Q.mask == V.mask for V in F.conjugates(T))]
        assert [Q.order for Q in delta] == [8, 4, 2, 2]
        assert not {P.mask for P in F.class_sets()["cr"]} <= {Q.mask for Q in delta}
        L = locality_from_group(group, 2, delta)
        assert (len(L.elements), L.full_domain) == (40, False)
        seen = close_callers(monkeypatch)
        FL = L.fusion()
        assert (FL._closed.size, F._closed.size) == (20, 28)
        assert not FL.same_homs(F)
        assert is_proper(L).summary() == "not proper: 2 normalizers not characteristic p"
        assert L.fusion() is FL
        assert seen == ["partial-domain fusion"]

    def test_close_runs_only_for_generated_systems(self, monkeypatch, tmp_path):
        d16 = tmp_path / "d16.json"
        d16.write_text(json.dumps(generated_groups()["d16"]))
        s5 = str(DATA / "s5.json")
        seen = close_callers(monkeypatch)
        assert run_quietly("classify", "--group", str(d16), "--p", "2") == 0
        assert run_quietly("locality", "--group", s5, "--p", "2") == 0
        assert seen == []
        assert run_quietly("verify", "--group", s5, "--p", "2") == 0
        assert seen
        assert set(seen) == {"is_cr_generated"}


class TestConjugatesAndClosureProperties:
    def test_s_is_self_conjugate_only(self, f_s4):
        assert f_s4.conjugates(f_s4.S) == (f_s4.S,)

    def test_double_transposition_class_has_three_members(self, f_s4):
        Z = _center(f_s4)
        conj = f_s4.conjugates(Z)
        assert len(conj) == 3
        assert all(P.order == 2 for P in conj)

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
        assert C.same_homs(FusionSystem(f_s4.S))

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
            and all(perm_order(f_s4.group.elements[x]) <= 2 for x in P.members())
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
        from test_derived_facts import join

        for F in (f_s4, f_s5):
            s_masks = {P.mask for P in F.class_sets()["s"]}
            core = F.o_p()
            for P in F.subs:
                if join(core, P).mask in s_masks:
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
                phi = movers[0].mapping
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
        assert report.summary() == "quotient fusion: pass"

    def test_map_into_a_smaller_system_fails(self, f_s4):
        # the inner system on S misses the maps S4 adds, so pushing F_S(S4)
        # there is not fusion preserving, and the two double transpositions
        # that S4 fuses with S's center are fully normalized only there
        inner = FusionSystem(f_s4.S)
        lam = FusionMap(f_s4, inner, {x: x for x in f_s4.S.members()})
        report = quotient_fusion_check(lam, f_s4, inner)
        assert not report.ok
        assert report.summary() == (
            "quotient fusion: FAIL ['fusion_preserving', 'fully_normalized_correspondence']")
        assert report.witnesses[0][0] == "fusion_preserving"

    def test_collapse_to_point_passes(self):
        group = builtin("c6")
        F = fusion_from_group(group, 2)
        triv_group = group_from_generators(1, [])
        Fbar = fusion_from_group(triv_group, 2)
        lam = FusionMap(F, Fbar, {x: 0 for x in F.S.members()})
        report = quotient_fusion_check(lam, F, Fbar)
        assert report.ok, report.checks
