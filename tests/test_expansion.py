"""Growing object families: seeds, triple classes, threading, lifts, quotients."""

import itertools
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab.errors import InputError, PropertyViolation
from llab.fusion import fusion_from_group
from llab.locality import (
    Locality,
    ProperReport,
    is_proper,
    locality_from_group,
    normalizer_in,
    normalizer_locality,
    o_p_of,
    o_pprime_of,
    object_set,
    product_partial_normal,
    quotient_locality,
    resolve_delta_spec,
    restrict,
)
from llab.partial import (
    PartialSubgroup,
    all_partial_normal_subgroups,
    generated_subgroup,
    is_partial_normal,
)
from llab.permgroup import (
    Subgroup,
    group_from_generators,
    mask_members,
    subgroups_below,
    sylow_p,
)
from llab import expansion
from llab.checks import ExampleContext
from llab.expansion import (
    _check_extension_pair,
    PhiTriple,
    approx_class,
    build_y_sets,
    canonical_triple,
    check_seed,
    check_unique_iso,
    elementary_expand,
    expand_quotient,
    full_expand,
    gamma_form,
    inverse_triple,
    lift_normal,
    make_seed,
    pi_plus,
    sim_related,
)
from table_partial import TablePartial
from test_fusion import BUILTIN_PAIRS

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"


@lru_cache(maxsize=None)
def builtin(name):
    spec = json.loads((DATA / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


@lru_cache(maxsize=None)
def setup(name):
    G = builtin(name)
    return G, fusion_from_group(G, 2)


@lru_cache(maxsize=None)
def loc(name, spec):
    G, F = setup(name)
    return locality_from_group(G, 2, resolve_delta_spec(F, spec))


def central_involution(S):
    return next(
        P
        for P in subgroups_below(S)
        if P.order == 2 and P.normalizer(S).mask == S.mask
    )


def swap_type(S, F):
    # order 2, small normalizer, fully normalized: a transposition subgroup
    return next(
        P
        for P in subgroups_below(S)
        if P.order == 2
        and P.normalizer(S).order == 4
        and F.is_fully_normalized(P)
    )


@lru_cache(maxsize=None)
def z_expansion():
    L = loc("s5", "c")
    return elementary_expand(L, central_involution(L.S))


@lru_cache(maxsize=None)
def t_expansion():
    L = loc("s5", "c")
    _, F = setup("s5")
    return elementary_expand(L, swap_type(L.S, F))


@lru_cache(maxsize=None)
def s5_full():
    _, F = setup("s5")
    return full_expand(loc("s5", "c"), resolve_delta_spec(F, "s"))


@lru_cache(maxsize=None)
def s4_full():
    _, F = setup("s4")
    return full_expand(loc("s4", "cr-closure"), resolve_delta_spec(F, "s"))


class TestSeedChecks:
    def test_central_involution_passes_all_legs(self):
        L = loc("s5", "c")
        r = check_seed(L, central_involution(L.S))
        assert r.ok
        assert r.strict_overgroups_in_delta
        assert r.rep_and_core_fully_normalized
        assert r.normalizer_witnesses_fusion
        assert r.details["normalizer_order"] == 8
        assert r.details["normalizer_characteristic_p"]

    def test_sylow_itself_passes(self):
        L = loc("s5", "c")
        assert check_seed(L, L.S).ok

    def test_shifted_conjugate_fails_normalization_leg(self):
        L = loc("s5", "c")
        _, F = setup("s5")
        core = F.o_p()
        bad = next(
            P
            for P in subgroups_below(L.S)
            if P.order == 2 and P.le(core) and not F.is_fully_normalized(P)
        )
        r = check_seed(L, bad)
        assert not r.ok
        assert r.strict_overgroups_in_delta
        assert not r.rep_and_core_fully_normalized

    def test_overgroup_gap_fails_first_leg(self):
        L = loc("s4", "cr-closure")
        r = check_seed(L, central_involution(L.S))
        assert not r.ok
        assert not r.strict_overgroups_in_delta
        assert "overgroup_outside_delta" in r.details

    def test_non_proper_carrier_reports_without_raising(self):
        # every nontrivial subgroup is an object, so only the trivial seed
        # is missing, and its normalizer is the whole (non-proper) carrier
        L = loc("s5", "all-nontrivial")
        assert not is_proper(L).ok
        G = L.group
        r = check_seed(L, Subgroup(G, 1 << L.identity))
        assert not r.ok
        assert r.strict_overgroups_in_delta
        assert r.rep_and_core_fully_normalized
        assert not r.normalizer_witnesses_fusion
        assert "normalizer_not_subgroup" in r.details

    def test_seed_outside_sylow_rejected(self):
        L = loc("s5", "c")
        five = sylow_p(L.group.top, 5)
        with pytest.raises(InputError):
            check_seed(L, five)


class TestWitnessSets:
    def test_central_witnesses_are_the_sylow(self):
        L = loc("s5", "c")
        Z = central_involution(L.S)
        ys = build_y_sets(L, Z)
        assert tuple(sorted(ys[Z.mask])) == tuple(sorted(Z.normalizer(L.S).members()))

    def test_sizes_and_transversal(self):
        seed = z_expansion().seed
        assert sorted(len(v) for v in seed.ysets.values()) == [8, 8, 8]
        assert seed.chosen_y[seed.R.mask] == seed.locality.identity
        for mask, ys in seed.ysets.items():
            assert seed.chosen_y[mask] in ys

    def test_right_translation_moves_the_base_set(self):
        seed = z_expansion().seed
        G = seed.group
        base = seed.ysets[seed.R.mask]
        for mask, ys in seed.ysets.items():
            y0 = seed.chosen_y[mask]
            assert {G.mult(n, y0) for n in base} == set(ys)

    def test_swap_class_witness_sizes(self):
        seed = t_expansion().seed
        assert sorted(len(v) for v in seed.ysets.values()) == [4, 4]
        assert seed.M.order == 4


class TestTriplesAndSim:
    def test_triple_validation(self):
        seed = t_expansion().seed
        L = seed.locality
        outside_m = next(g for g in L.elements if g not in seed._m_set)
        y0 = seed.chosen_y[seed.R.mask]
        with pytest.raises(InputError):
            seed.triple(y0, outside_m, y0)
        no_witness = next(g for g in L.elements if g not in seed._endpoint)
        h0 = min(seed._m_set)
        with pytest.raises(InputError):
            seed.triple(no_witness, h0, y0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sim_agrees_with_canonical_form(self, data):
        seed = z_expansion().seed
        conj = list(seed.conjugates)
        M = sorted(seed._m_set)

        def draw_triple():
            U = data.draw(st.sampled_from(conj))
            V = data.draw(st.sampled_from(conj))
            x = data.draw(st.sampled_from(list(seed.ysets[U.mask])))
            y = data.draw(st.sampled_from(list(seed.ysets[V.mask])))
            return seed.triple(x, data.draw(st.sampled_from(M)), y)

        a, b = draw_triple(), draw_triple()
        assert sim_related(seed, a, a)
        assert sim_related(seed, a, b) == sim_related(seed, b, a)
        ca, cb = canonical_triple(seed, a), canonical_triple(seed, b)
        assert sim_related(seed, a, ca)
        assert canonical_triple(seed, ca) == ca
        assert sim_related(seed, a, b) == (ca == cb)

    def test_exactly_one_transversal_middle_per_class(self):
        seed = z_expansion().seed
        conj = list(seed.conjugates)
        rng = random.Random(11)
        for _ in range(40):
            U, V = rng.choice(conj), rng.choice(conj)
            phi = seed.triple(
                rng.choice(seed.ysets[U.mask]),
                rng.choice(sorted(seed._m_set)),
                rng.choice(seed.ysets[V.mask]),
            )
            hits = [
                h
                for h in sorted(seed._m_set)
                if sim_related(
                    seed,
                    PhiTriple(
                        seed.chosen_y[U.mask], h, seed.chosen_y[V.mask], U.mask, V.mask
                    ),
                    phi,
                )
            ]
            assert len(hits) == 1
            assert hits[0] == canonical_triple(seed, phi).h

    def test_class_size_is_witness_product(self):
        seed = z_expansion().seed
        U = seed.conjugates[0]
        V = seed.conjugates[-1]
        phi = seed.triple(seed.chosen_y[U.mask], sorted(seed._m_set)[3],
                          seed.chosen_y[V.mask])
        cls = set()
        for x in seed.ysets[U.mask]:
            for y in seed.ysets[V.mask]:
                found = [
                    h for h in sorted(seed._m_set)
                    if sim_related(seed, PhiTriple(x, h, y, U.mask, V.mask), phi)
                ]
                assert len(found) == 1
                cls.add((x, found[0], y))
        assert len(cls) == 64

    def test_inverse_triple_folds_to_inverse(self):
        seed = z_expansion().seed
        G = seed.group
        U, V = seed.conjugates[1], seed.conjugates[2]
        phi = seed.triple(seed.ysets[U.mask][2], sorted(seed._m_set)[5],
                          seed.ysets[V.mask][7])
        inv = inverse_triple(seed, phi)
        assert (inv.u_mask, inv.v_mask) == (phi.v_mask, phi.u_mask)
        assert seed.fold(inv) == G.inv(seed.fold(phi))


class TestElementaryGrowth:
    def test_central_class_trace_numbers(self):
        exp = z_expansion()
        assert exp.trace == {
            "noop": False,
            "r_order": 2,
            "r_class_size": 3,
            "sim_classes": 72,
            "embedded": 24,
            "singletons": 0,
            "pure": 0,
            "elements_before": 24,
            "elements_after": 24,
            "checks": {
                "restriction": True,
                "normalizer_preserved": True,
                "fusion_preserved": True,
                "proper": True,
                "conjugation_records": True,
            },
        }
        base = exp.base
        assert len(exp.locality.delta.members) == len(base.delta.members) + 3

    def test_every_class_lands_on_its_fold(self):
        exp = z_expansion()
        seed = exp.seed
        L = exp.base
        for (u, h, v), cls in exp.class_index.items():
            can = PhiTriple(seed.chosen_y[u], h, seed.chosen_y[v], u, v)
            assert cls.kind == "embedded"
            assert cls.element == seed.fold(can) == L.product(seed.word(can))

    def test_classes_per_element_count_fitting_conjugates(self):
        exp = z_expansion()
        L = exp.base
        for g in L.elements:
            keys = [k for k, c in exp.class_index.items() if c.element == g]
            fitting = [
                U for U in exp.seed.conjugates
                if U.mask & L.s_g_mask(g) == U.mask
            ]
            assert len(keys) == len(fitting) == 3
            assert sorted(u for u, _, _ in keys) == sorted(U.mask for U in fitting)

    def test_swap_class_leaves_singletons(self):
        exp = t_expansion()
        tr = exp.trace
        assert (tr["sim_classes"], tr["embedded"], tr["singletons"], tr["pure"]) == (
            16, 8, 16, 0,
        )
        assert tr["elements_after"] == 24
        # the invariant Klein core stays an object, so products remain total
        assert exp.locality.full_domain
        assert len(exp.locality.delta.members) == 6

    def test_noop_when_seed_already_object(self):
        L = loc("s5", "c")
        res = elementary_expand(L, L.S)
        assert res.trace["noop"] is True
        assert res.locality is L
        assert res.seed is None
        assert set(res.element_class) == set(L.elements)

    def test_approx_class_paths_agree(self):
        exp = z_expansion()
        L = exp.base
        g = L.elements[17]
        cls = approx_class(exp, g)
        assert cls.rep is not None
        assert approx_class(exp, cls.rep) == cls
        with pytest.raises(InputError):
            approx_class(exp, max(exp.locality.group.order, 10_000))
        with pytest.raises(InputError):
            approx_class(exp, "not a class")

    def test_inverse_class_matches_inverse_element(self):
        exp = z_expansion()
        G = exp.base.group
        for g in exp.base.elements[::5]:
            rep = approx_class(exp, g).rep
            assert approx_class(exp, inverse_triple(exp.seed, rep)).element == G.inv(g)

    def test_rejected_seed_raises(self):
        L = loc("s4", "cr-closure")
        with pytest.raises(InputError):
            elementary_expand(L, central_involution(L.S))


class TestThreadingProducts:
    def test_empty_word_is_identity(self):
        exp = z_expansion()
        assert pi_plus(exp, ()).element == exp.locality.identity

    def test_all_pairs_match_ambient(self):
        exp = z_expansion()
        G = exp.base.group
        for g, h in itertools.product(exp.base.elements, repeat=2):
            cls = pi_plus(exp, (approx_class(exp, g), approx_class(exp, h)))
            assert cls.element == G.mult(g, h)

    def test_swap_growth_pairs_match_ambient(self):
        exp = t_expansion()
        G = exp.base.group
        for g, h in itertools.product(exp.base.elements, repeat=2):
            cls = pi_plus(exp, (approx_class(exp, g), approx_class(exp, h)))
            assert cls.element == G.mult(g, h)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_longer_words_match_ambient(self, data):
        exp = z_expansion()
        G = exp.base.group
        word = data.draw(
            st.lists(st.sampled_from(exp.base.elements), min_size=1, max_size=4)
        )
        want = word[0]
        for g in word[1:]:
            want = G.mult(want, g)
        assert pi_plus(exp, tuple(approx_class(exp, g) for g in word)).element == want

    def test_word_followed_by_its_inverse_closes(self):
        exp = z_expansion()
        G = exp.base.group
        w = (exp.base.elements[9], exp.base.elements[20])
        back = tuple(G.inv(g) for g in reversed(w))
        cls = pi_plus(exp, tuple(approx_class(exp, g) for g in w + back))
        assert cls.element == exp.locality.identity

    def test_singleton_entries_take_the_base_route(self):
        exp = t_expansion()
        G = exp.base.group
        sing = next(
            g for g in exp.base.elements
            if approx_class(exp, g).rep is None and g != exp.base.identity
        )
        word = (approx_class(exp, sing), approx_class(exp, exp.base.identity))
        assert gamma_form(exp, word) is None
        assert pi_plus(exp, word).element == sing

    def test_threading_exists_and_matches_for_class_words(self):
        exp = z_expansion()
        G = exp.base.group
        rng = random.Random(3)
        for _ in range(25):
            w = [rng.choice(exp.base.elements) for _ in range(2)]
            form = gamma_form(exp, tuple(approx_class(exp, g) for g in w))
            assert form is not None
            assert form[0].v_mask == form[1].u_mask

    def test_rejects_non_class_entries(self):
        exp = z_expansion()
        with pytest.raises(InputError):
            pi_plus(exp, (1, 2))


class TestGrowthPostconditions:
    def test_restriction_recovers_base(self):
        exp = z_expansion()
        back = restrict(exp.locality, exp.base.delta)
        assert back.elements == exp.base.elements
        assert back.delta.mask_set == exp.base.delta.mask_set

    def test_normalizer_and_fusion_preserved(self):
        exp = z_expansion()
        R = exp.seed.R
        assert set(normalizer_in(exp.locality, R).members) == set(
            normalizer_in(exp.base, R).members
        )
        assert exp.locality.fusion().same_homs(exp.base.fusion())

    def test_properness_preserved(self):
        assert is_proper(z_expansion().locality).ok
        assert is_proper(t_expansion().locality).ok

    def test_trace_serializes(self):
        blob = json.dumps(z_expansion().trace, sort_keys=True)
        assert json.loads(blob)["sim_classes"] == 72


class TestFullGrowth:
    def test_s5_reaches_full_family_in_three_steps(self):
        fe = s5_full()
        assert [s.trace["r_order"] for s in fe.steps] == [2, 2, 1]
        assert [s.trace["r_class_size"] for s in fe.steps] == [2, 3, 1]
        assert len(fe.locality.elements) == 24
        assert len(fe.locality.delta.members) == 10
        assert fe.locality.full_domain
        assert is_proper(fe.locality).ok

    def test_growth_never_reaches_the_ambient_direct_build(self):
        # the direct object over the full family is the whole group, which
        # is a locality but not a proper one; growth stays at 24 elements
        fe = s5_full()
        _, F = setup("s5")
        direct = locality_from_group(fe.base.group, 2, resolve_delta_spec(F, "s"))
        assert len(direct.elements) == 120
        assert not is_proper(direct).ok
        assert check_unique_iso(fe.locality, direct) is None
        assert check_unique_iso(fe.locality, direct, base=fe.base) is None

    def test_s4_growth_equals_direct_build(self):
        fe = s4_full()
        assert [s.trace["r_order"] for s in fe.steps] == [4, 4, 2, 2, 1]
        _, F = setup("s4")
        direct = locality_from_group(fe.base.group, 2, resolve_delta_spec(F, "s"))
        iso = check_unique_iso(fe.locality, direct, base=fe.base)
        assert iso is not None
        assert iso.verify()[0]
        assert iso.is_projection()
        assert iso.kernel().order == 1
        assert all(iso.mapping[g] == g for g in fe.locality.elements)

    def test_identity_target_is_a_noop(self):
        L = loc("s5", "c")
        fe = full_expand(L, L.delta)
        assert fe.steps == ()
        assert fe.locality is L

    def test_target_must_contain_current_objects(self):
        _, F = setup("s4")
        with pytest.raises(InputError):
            full_expand(loc("s4", "all"), resolve_delta_spec(F, "c"))

    def test_target_must_be_closed(self):
        L = loc("s4", "cr-closure")
        with pytest.raises(InputError):
            full_expand(L, list(L.delta.members) + [central_involution(L.S)])

    def test_needs_a_proper_carrier(self):
        _, F = setup("s5")
        L = loc("s5", "all-nontrivial")
        with pytest.raises(InputError):
            full_expand(L, resolve_delta_spec(F, "all"))

    def test_trace_is_serializable_step_list(self):
        fe = s5_full()
        tr = json.loads(json.dumps(fe.trace()))
        assert len(tr) == 3
        assert all(not step["noop"] for step in tr)


class TestNormalLifts:
    def test_lifts_fix_every_partial_normal_here(self):
        fe = s5_full()
        L, Lp = fe.base, fe.locality
        norms = all_partial_normal_subgroups(L)
        assert sorted(n.order for n in norms) == [1, 4, 12, 24]
        for N in norms:
            lifted = lift_normal(L, Lp, N)
            assert lifted.members == N.members

    def test_correspondence_is_bijective(self):
        fe = s5_full()
        lifted = {
            lift_normal(fe.base, fe.locality, N).members
            for N in all_partial_normal_subgroups(fe.base)
        }
        upstairs = {N.members for N in all_partial_normal_subgroups(fe.locality)}
        assert lifted == upstairs

    def test_lift_into_the_ambient_group_saturates(self):
        # the whole group over the full family restricts to L, so it is a
        # legitimate (non-proper) extension; the order-12 part saturates
        # to the order-60 normal subgroup and cuts back exactly
        L = loc("s5", "c")
        _, F = setup("s5")
        direct = locality_from_group(L.group, 2, resolve_delta_spec(F, "s"))
        N = next(n for n in all_partial_normal_subgroups(L) if n.order == 12)
        lifted = lift_normal(L, direct, N)
        assert lifted.order == 60
        assert lifted.members & set(L.elements) == N.members

    def test_product_compatibility(self):
        fe = s5_full()
        L, Lp = fe.base, fe.locality
        norms = all_partial_normal_subgroups(L)
        for M, N in itertools.combinations(norms, 2):
            both = product_partial_normal(L, M, N)
            upstairs = product_partial_normal(
                Lp, lift_normal(L, Lp, M), lift_normal(L, Lp, N)
            )
            assert lift_normal(L, Lp, both).members == upstairs.members

    def test_relative_core_compatibility(self):
        fe = s5_full()
        L, Lp = fe.base, fe.locality
        for N in all_partial_normal_subgroups(L):
            lifted = lift_normal(L, Lp, N)
            assert lift_normal(L, Lp, o_p_of(L, N)).members == o_p_of(Lp, lifted).members
            assert (
                lift_normal(L, Lp, o_pprime_of(L, N)).members
                == o_pprime_of(Lp, lifted).members
            )

    def test_rejects_bad_inputs(self):
        fe = s5_full()
        L, Lp = fe.base, fe.locality
        t = next(g for g in L.elements if g != 0 and L.group.mult(g, g) == 0)
        loose = generated_subgroup(L, [t])
        if not is_partial_normal(L, loose):
            with pytest.raises(InputError):
                lift_normal(L, Lp, loose)
        N = next(n for n in all_partial_normal_subgroups(L) if n.order == 12)
        with pytest.raises(InputError):
            lift_normal(Lp, L, lift_normal(L, Lp, N))
        with pytest.raises(InputError):
            lift_normal(L, Lp, PartialSubgroup(Lp, N.members))


def reference_lift_normal(L, Lplus, N):
    """`lift_normal` as it was before it became a normal closure.

    The lift is generated by all conjugates of N's members formed in the
    grown locality, and then swept for partial normality.
    """
    _check_extension_pair(L, Lplus)
    if N.pg is not L:
        raise InputError("the subgroup must live in the base locality")
    if not is_partial_normal(L, N):
        raise InputError("lift needs a partial normal subgroup")
    seeds = set(N.members)
    for f in N.members:
        for g in Lplus.elements:
            z = Lplus.conj(f, g)
            if z is not None:
                seeds.add(z)
    lifted = generated_subgroup(Lplus, seeds)
    if not is_partial_normal(Lplus, lifted):
        raise PropertyViolation(
            "lifted subgroup is not partial normal", witness=sorted(lifted.members)
        )
    if lifted.members & set(L.elements) != N.members:
        raise PropertyViolation(
            "lift does not cut back to the base subgroup",
            witness=sorted(lifted.members & set(L.elements)),
        )
    s_ords = set(mask_members(L.S.mask))
    if lifted.members & s_ords != N.members & s_ords:
        raise PropertyViolation(
            "lift changed the S-part of the subgroup",
            witness=sorted(lifted.members & s_ords),
        )
    return lifted


@lru_cache(maxsize=None)
def example(name, p):
    return ExampleContext(builtin(name), p)


class TestLiftIsTheNormalClosure:
    @pytest.mark.parametrize("name,p", BUILTIN_PAIRS)
    def test_matches_the_conjugate_generated_lift(self, name, p):
        ctx = example(name, p)
        L, Lp = ctx.base, ctx.growth.locality
        pairs = [(L, Lp, N) for N in ctx.base_normals]
        for _, rep in ctx.towers:
            pairs.extend((rep.lbar, rep.lbarplus, K)
                         for K in all_partial_normal_subgroups(rep.lbar))
        assert len(pairs) > len(ctx.base_normals)
        for base, grown, N in pairs:
            assert (lift_normal(base, grown, N).members
                    == reference_lift_normal(base, grown, N).members)

    @pytest.mark.parametrize("name", ["s5", "a5"])
    def test_matches_into_the_one_shot_construction(self, name):
        # lifts here grow (order 12 -> 60) or fail to cut back (order 4)
        L = loc(name, "c")
        _, F = setup(name)
        direct = locality_from_group(L.group, 2, resolve_delta_spec(F, "s"))

        def outcome(lift, N):
            try:
                return lift(L, direct, N).members
            except PropertyViolation as exc:
                return str(exc)

        got = [outcome(lift_normal, N) for N in all_partial_normal_subgroups(L)]
        assert got == [outcome(reference_lift_normal, N)
                       for N in all_partial_normal_subgroups(L)]
        assert "lift does not cut back to the base subgroup" in got
        assert any(isinstance(m, frozenset) and m > N.members
                   for m, N in zip(got, all_partial_normal_subgroups(L)))


class TestUniqueIso:
    def test_object_family_mismatch_is_none(self):
        exp = z_expansion()
        assert check_unique_iso(exp.locality, exp.base) is None

    def test_scrambled_table_is_none(self):
        fe = s4_full()
        Lp = fe.locality
        G = Lp.group
        products = {
            (a, b): G.mult(a, b)
            for a, b in itertools.product(Lp.elements, repeat=2)
        }
        a, b = Lp.elements[3], Lp.elements[5]
        c, d = Lp.elements[7], Lp.elements[2]
        products[(a, b)], products[(c, d)] = products[(c, d)], products[(a, b)]
        scrambled = TablePartial(
            Lp.elements, Lp.identity, {g: G.inv(g) for g in Lp.elements}, products
        )
        assert check_unique_iso(Lp, scrambled) is None

    def test_locality_target_needs_no_sweep(self, monkeypatch):
        # group, S, Delta and carrier agree, so no homomorphism sweep runs
        fe = s4_full()
        _, F = setup("s4")
        direct = locality_from_group(fe.base.group, 2, resolve_delta_spec(F, "s"))

        def sweep(self, max_len=3):
            raise AssertionError("swept a Locality target")

        monkeypatch.setattr(expansion.PGHom, "verify", sweep)
        iso = check_unique_iso(fe.locality, direct, base=fe.base)
        assert iso is not None and iso.target is direct

    def test_positive_case_is_the_identity(self):
        fe = s4_full()
        _, F = setup("s4")
        direct = locality_from_group(fe.base.group, 2, resolve_delta_spec(F, "s"))
        iso = check_unique_iso(fe.locality, direct)
        assert iso is not None
        assert iso.mapping == {g: g for g in fe.locality.elements}


class TestQuotientTower:
    def test_s5_modulo_its_odd_part(self):
        L = loc("s5", "c")
        _, F = setup("s5")
        N = next(n for n in all_partial_normal_subgroups(L) if n.order == 12)
        rep = expand_quotient(L, N, full_expand(L, resolve_delta_spec(F, "s")))
        assert rep.ok
        assert all(rep.checks.values())
        assert len(rep.lbar.elements) == 2
        assert rep.nplus.order == 12
        assert rep.rho_plus.kernel().members == rep.nplus.members
        assert len(rep.lbarplus.elements) == 2
        assert rep.sigma.mapping == quotient_locality(L, N).sigma.mapping

    def test_trivial_kernel_tower(self):
        L = loc("s5", "c")
        _, F = setup("s5")
        triv = next(n for n in all_partial_normal_subgroups(L) if n.order == 1)
        rep = expand_quotient(L, triv, full_expand(L, resolve_delta_spec(F, "s")))
        assert rep.ok
        assert rep.rho_plus.kernel().order == 1
        assert len(rep.lbar.elements) == 24
        assert rep.sigma.mapping == quotient_locality(L, triv).sigma.mapping

    def test_s4_modulo_klein(self):
        L = loc("s4", "cr-closure")
        _, F = setup("s4")
        N = next(n for n in all_partial_normal_subgroups(L) if n.order == 4)
        rep = expand_quotient(L, N, full_expand(L, resolve_delta_spec(F, "s")))
        assert rep.ok
        assert len(rep.lbar.elements) == 6
        assert rep.nplus.order == 4
        assert len(all_partial_normal_subgroups(rep.lbar)) == 3
        assert rep.sigma.mapping == quotient_locality(L, N).sigma.mapping

    def test_growth_of_another_base_rejected(self):
        L = loc("s5", "c")
        _, F = setup("s5")
        N = next(n for n in all_partial_normal_subgroups(L) if n.order == 12)
        other = full_expand(loc("s5", "cr-closure"), resolve_delta_spec(F, "s"))
        with pytest.raises(InputError, match="full expansion of this locality"):
            expand_quotient(L, N, other)


class TestRestrictionCut:
    def test_base_recovered_as_a_cut(self):
        fe = s4_full()
        assert restrict(fe.locality, fe.base.delta).elements == fe.base.elements
        expansion._check_restricts_to_base(fe.locality, fe.base)

    def test_cut_larger_than_the_base_fires(self):
        # S with every subgroup of S as an object is a locality on its own;
        # the whole of S4 over the same family cuts back to all 24 elements
        big = loc("s4", "all")
        S = big.S
        small = Locality(big.group, S.members(), S, big.delta, 2)
        assert restrict(big, small.delta).elements != small.elements
        with pytest.raises(PropertyViolation, match="does not recover the base"):
            expansion._check_restricts_to_base(big, small)

    def test_properness_guard_fires(self, monkeypatch):
        fe = s4_full()
        grown, base = fe.locality, fe.base
        monkeypatch.setattr(expansion, "is_proper",
                            lambda L: ProperReport(ok=L is grown))
        with pytest.raises(PropertyViolation, match="restriction broke properness"):
            expansion._check_restricts_to_base(grown, base)


class TestRadicalBasePath:
    def test_normalizer_carrier_agrees_across_bases(self):
        # the radical-closure base has to grow internally before it can
        # hand over a carrier for the normalizer construction
        L_small = loc("s5", "cr-closure")
        L_big = loc("s5", "c")
        _, F = setup("s5")
        core = F.o_p()
        small = normalizer_locality(L_small, core)
        big = normalizer_locality(L_big, core)
        assert small.elements == big.elements
        assert small.delta.mask_set == big.delta.mask_set
