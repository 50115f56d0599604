"""Localities: construction, restriction, quotients, section operators."""

import gc
import itertools
import json
import weakref
from pathlib import Path

import pytest

import oracles
from llab.errors import DomainError, InputError, PropertyViolation
from llab.fusion import fusion_from_group
from llab.locality import (
    Locality,
    centralizer_in,
    centralizer_locality,
    fusion_of,
    is_proper,
    locality_from_group,
    normalizer_in,
    normalizer_locality,
    o_p_locality,
    o_p_of,
    o_pprime_of,
    object_set,
    product_partial_normal,
    quotient_locality,
    resolve_delta_spec,
    restrict,
    s_of_word,
    theta_quotient,
)
from llab.partial import (
    PartialGroup,
    PartialSubgroup,
    check_axioms,
    is_partial_normal,
    all_partial_normal_subgroups,
    normal_closure,
)
from llab.permgroup import Subgroup, group_from_generators, p_core, subgroups_below, sylow_p

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"


def builtin(name):
    spec = json.loads((DATA / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


def delta_of(group, p, spec):
    F = fusion_from_group(group, p)
    return resolve_delta_spec(F, spec)


@pytest.fixture(scope="module")
def s4_all():
    G = builtin("s4")
    return locality_from_group(G, 2, delta_of(G, 2, "all"))


@pytest.fixture(scope="module")
def s5_c():
    G = builtin("s5")
    return locality_from_group(G, 2, delta_of(G, 2, "c"))


@pytest.fixture(scope="module")
def c6_top():
    G = builtin("c6")
    S = sylow_p(G, 2)
    return locality_from_group(G, 2, [S])


def to_ambient(ambient, sub_of_subgroup):
    """Translate a Subgroup of an as_group() carrier back to ambient ordinals."""
    inner = sub_of_subgroup.group
    return {ambient.index_of(inner.elements[i]) for i in sub_of_subgroup.members()}


class TestFromGroup:
    def test_s4_overgroups_of_core_is_everything(self):
        G = builtin("s4")
        S = sylow_p(G, 2)
        V4 = p_core(G, 2)
        assert V4.order == 4
        delta = [Q for Q in subgroups_below(S) if V4.le(Q)]
        L = locality_from_group(G, 2, delta)
        assert len(L.elements) == G.order
        assert L.full_domain

    def test_s5_centric_restriction_matches_oracle(self, s5_c):
        G_elems = oracles.load_elements("s5")
        S_elems = oracles.sylow2_like_llab(G_elems)
        _, _, rows = oracles.classification_table("s5")
        fc = oracles.upward({P for P, f in rows.items() if f["centric"]}, S_elems)
        expected = oracles.locality_elements(G_elems, S_elems, fc)
        G = s5_c.group
        got = {G.elements[i] for i in s5_c.elements}
        assert got == expected
        assert len(s5_c.elements) == 24

    def test_s5_excludes_transposition_with_small_s_g(self, s5_c):
        # the canonical Sylow 2-subgroup moves the last four points, so the
        # excluded transposition class is represented by the (1 2) swap
        G = s5_c.group
        t = G.index_of((1, 0, 2, 3, 4))
        assert t not in s5_c._index
        assert s_of_word(s5_c, [t]).order == 2

    def test_c6_abelian_keeps_everything(self, c6_top):
        assert len(c6_top.elements) == 6
        assert all(c6_top.s_g_mask(g) == c6_top.S.mask for g in c6_top.elements)

    def test_delta_not_fusion_invariant_rejected(self):
        G = builtin("s4")
        S = sylow_p(G, 2)
        z = next(P for P in subgroups_below(S)
                 if P.order == 2 and P.normalizer(S).mask == S.mask)
        V4 = p_core(G, 2)
        bad = [Q for Q in subgroups_below(S) if V4.le(Q)] + [z]
        with pytest.raises(InputError):
            locality_from_group(G, 2, bad)

    def test_delta_not_overgroup_closed_rejected(self):
        G = builtin("s4")
        with pytest.raises(InputError):
            object_set(sylow_p(G, 2), [p_core(G, 2)])


class TestSgTable:
    def test_empty_word_gives_s(self, s5_c):
        assert s_of_word(s5_c, []).mask == s5_c.S.mask

    def test_single_letter_matches_table(self, s5_c):
        for g in s5_c.elements:
            assert s_of_word(s5_c, [g]).mask == s5_c.s_g_mask(g)

    def test_inverse_relation(self, s5_c):
        G = s5_c.group
        for g in list(s5_c.elements)[:12]:
            lhs = s_of_word(s5_c, [G.inv(g)])
            rhs = s_of_word(s5_c, [g]).conjugate(g)
            assert lhs.mask == rhs.mask

    def test_prefix_monotone(self, s5_c):
        els = list(s5_c.elements)
        for g, h in zip(els[3:9], els[10:16]):
            assert s_of_word(s5_c, [g, h]).le(s_of_word(s5_c, [g]))

    def test_oracle_s_g_agreement(self, s5_c):
        G_elems = oracles.load_elements("s5")
        S_elems = oracles.sylow2_like_llab(G_elems)
        G = s5_c.group
        for g in list(s5_c.elements)[:10]:
            want = oracles.s_g(S_elems, G.elements[g])
            got = {G.elements[x] for x in s_of_word(s5_c, [g]).members()}
            assert got == want


class TestDomainAndAxioms:
    def test_o1_definition(self, s5_c):
        els = list(s5_c.elements)
        for w in [(els[1],), (els[5], els[7]), (els[3], els[11], els[2])]:
            assert s5_c.in_domain(w) == (s5_c.s_word_mask(w) in s5_c.delta.mask_set)

    def test_axioms_pass(self, s4_all, s5_c, c6_top):
        for L in (s4_all, s5_c, c6_top):
            assert check_axioms(L).ok

    def test_full_domain_detection(self, s4_all, s5_c, c6_top):
        # invariant core contains an object in each of these carriers
        assert s4_all.full_domain
        assert s5_c.full_domain
        assert c6_top.full_domain


def reference_s_words(G, S, max_len, letters=None):
    """Word -> mask of S_w for every word of length <= max_len over the letters.

    The letters default to every ordinal of G.  Computed on the permutation
    tuples with local arithmetic, not through llab's masks: a depth-first
    walk keeps, for each prefix u, the pairs (x, x**u) with x in S whose
    conjugates by every prefix stayed in S.
    """
    perms = G.elements
    pos = {perm: i for i, perm in enumerate(perms)}
    s_perms = {perms[i] for i in range(G.order) if S.mask >> i & 1}

    def conj(x, g):  # x**g = g**-1 x g, applying the left factor first
        ginv = [0] * len(g)
        for i, j in enumerate(g):
            ginv[j] = i
        return tuple(g[x[ginv[i]]] for i in range(len(g)))

    out = {}

    def walk(word, pairs):
        out[word] = sum(1 << pos[x] for x, _ in pairs)
        if len(word) == max_len:
            return
        for g in range(G.order) if letters is None else letters:
            step = [(x, y) for x, y in ((x, conj(y, perms[g])) for x, y in pairs)
                    if y in s_perms]
            walk(word + (g,), step)

    walk((), [(x, x) for x in s_perms])
    return out


class TestDomainKernel:
    """S_w stepping, carrier membership and whole-word products."""

    # in s4, d8 and a5 every S_w is normalized by the word's product, so
    # s5 (shorter words, for time) is the case that sees the pull-back
    @pytest.mark.parametrize("name,max_len", [("s4", 3), ("d8", 3), ("a5", 3), ("s5", 2)])
    def test_s_word_mask_matches_reference(self, name, max_len):
        G = builtin(name)
        locs = [locality_from_group(G, 2, delta_of(G, 2, spec))
                for spec in ("q", "c", "cr-closure")]
        if name in ("a5", "s5"):  # letters outside the carrier are among the words
            assert all(len(L.elements) < G.order for L in locs)
        want = reference_s_words(G, locs[0].S, max_len)
        for L in locs:
            bad = [w for w, m in want.items() if L.s_word_mask(w) != m]
            assert not bad, (L, bad[:5])

    def test_in_domain_matches_reference_on_partial_domain(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        assert not L.full_domain
        want = reference_s_words(G, L.S, 2, L.elements)
        want.update(reference_s_words(G, L.S, 3, L.elements[::7]))
        for w, m in want.items():
            assert L.in_domain(w) == (m in L.delta.mask_set), w
            # a one-shot iterable gives the same answers
            assert L.in_domain(iter(w)) == L.in_domain(w), w
            assert L.s_word_mask(iter(w)) == m, w
        assert not all(L.in_domain(w) for w in want)

    def test_non_carrier_letters_and_negative_ordinals(self):
        G = builtin("a5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        outside = next(g for g in range(G.order) if g not in L._index)
        inside = L.elements[1]
        for w in [(outside,), (inside, outside), (outside, inside, inside),
                  (-1,), (inside, -1), (-G.order,)]:
            assert not L.in_domain(w), w
        for bad in (-1, G.order):
            with pytest.raises(InputError):
                L.s_word_mask((inside, bad))

    def test_product_names_the_same_failing_prefix(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        outside = next(g for g in range(G.order) if g not in L._index)
        words = [w for w in itertools.product(L.elements[::5], repeat=3)
                 if not L.in_domain(w)]
        words += [(outside,), (L.elements[3], outside), (1, 2, -1)]
        assert len(words) > 10
        for w in words:
            with pytest.raises(DomainError) as whole:
                L.product(w)
            with pytest.raises(DomainError) as prefixes:
                PartialGroup.product(L, w)
            assert whole.value.prefix_len == prefixes.value.prefix_len, w
        for w in itertools.product(L.elements[::9], repeat=3):
            if L.in_domain(w):
                assert L.product(w) == PartialGroup.product(L, w)


class TestNormalizersInside:
    def test_n_of_core_is_whole_s4(self, s4_all):
        V4 = p_core(s4_all.group, 2)
        assert normalizer_in(s4_all, V4).order == 24
        assert set(centralizer_in(s4_all, V4).members) == set(V4.members())

    def test_n_of_s_contains_s(self, s5_c):
        N = normalizer_in(s5_c, s5_c.S)
        assert set(s5_c.S.members()) <= N.members

    def test_matches_ambient_intersection(self, s5_c):
        E = next(P for P in subgroups_below(s5_c.S)
                 if P.order == 4 and P.mask != fusion_of(s5_c).o_p().mask
                 and all(s5_c.group.element_order(x) <= 2 for x in P.members()))
        want = {g for g in s5_c.elements
                if E.conjugate(g).mask == E.mask}
        got = normalizer_in(s5_c, E).members
        assert got == want

    def test_requires_subgroup_of_s(self, s4_all):
        A4 = next(P for P in subgroups_below(s4_all.group.top) if P.order == 12)
        with pytest.raises(InputError):
            normalizer_in(s4_all, A4)

    def test_guards_fire_on_a_carrier_missing_an_inverse(self):
        # unchecked carriers S + {g} with g of order 3: g normalizes V4 in S4
        # and centralizes S in C6, but g**-1 is not in the carrier
        G = builtin("s4")
        S = sylow_p(G, 2)
        V4 = p_core(G, 2)
        g = next(x for x in range(G.order) if G.element_order(x) == 3)
        delta = object_set(S, [Q for Q in subgroups_below(S) if V4.le(Q)])
        L = Locality(G, list(S.members()) + [g], S, delta, 2, check=False)
        with pytest.raises(PropertyViolation, match=r"^N_L\(P\) for an object P") as exc:
            normalizer_in(L, V4)
        assert exc.value.witness == (g,)
        C = builtin("c6")
        T = sylow_p(C, 2)
        h = next(x for x in range(C.order) if C.element_order(x) == 3)
        L = Locality(C, list(T.members()) + [h], T, object_set(T, [T]), 2, check=False)
        with pytest.raises(PropertyViolation, match=r"^C_L\(P\) for an object P") as exc:
            centralizer_in(L, T)
        assert exc.value.witness == (h,)


class TestProperness:
    def test_s4_proper(self, s4_all):
        assert is_proper(s4_all).ok

    def test_s5_centric_proper(self, s5_c):
        assert is_proper(s5_c).ok

    def test_c6_not_proper_with_witness(self, c6_top):
        report = is_proper(c6_top)
        assert not report.ok
        assert not report.missing_cr
        (P, N) = report.bad_normalizers[0]
        assert P.mask == c6_top.S.mask
        assert N.order == 6
        assert "characteristic" in report.summary()

    def test_p_group_always_proper(self):
        G = builtin("d8")
        L = locality_from_group(G, 2, delta_of(G, 2, "all"))
        assert is_proper(L).ok


class TestFusionOf:
    def test_full_domain_recovers_group_fusion(self, s4_all):
        assert fusion_of(s4_all).same_homs(fusion_from_group(s4_all.group, 2))

    def test_restriction_keeps_fusion_above_cr(self, s5_c):
        assert fusion_of(s5_c).same_homs(fusion_from_group(s5_c.group, 2))

    def test_c6_gives_trivial_fusion(self, c6_top):
        F = fusion_of(c6_top)
        assert F.same_homs(F.trivial_on(c6_top.S))


class TestRestrict:
    def test_restrict_to_same_delta_is_identity(self, s5_c):
        again = restrict(s5_c, list(s5_c.delta.members))
        assert again.elements == s5_c.elements
        assert again.delta.mask_set == s5_c.delta.mask_set

    def test_s5_subcentric_to_centric_drops_elements(self):
        G = builtin("s5")
        Ls = locality_from_group(G, 2, delta_of(G, 2, "s"))
        assert len(Ls.elements) == 120
        Lc = restrict(Ls, delta_of(G, 2, "c"))
        assert len(Lc.elements) == 24

    def test_s4_all_to_core_overgroups_keeps_elements(self, s4_all):
        V4 = p_core(s4_all.group, 2)
        delta0 = [Q for Q in subgroups_below(s4_all.S) if V4.le(Q)]
        L0 = restrict(s4_all, delta0)
        assert L0.elements == s4_all.elements
        assert L0.full_domain

    def test_not_subset_rejected(self, s5_c):
        G = s5_c.group
        with pytest.raises(InputError):
            restrict(s5_c, delta_of(G, 2, "q"))


class TestThetaQuotient:
    def test_c6_collapses_odd_part(self, c6_top):
        theta, quo = theta_quotient(c6_top)
        assert theta.order == 3
        assert sorted(c6_top.group.element_order(x) for x in theta.members) == [1, 3, 3]
        assert len(quo.elements) == 2
        assert is_proper(quo).ok
        assert quo.provenance == "theta-quotient"

    def test_s3_at_three_is_already_clean(self):
        G = builtin("s3")
        S = sylow_p(G, 3)
        L = locality_from_group(G, 3, [S])
        assert len(L.elements) == 6
        theta, quo = theta_quotient(L)
        assert theta.order == 1
        assert quo.elements == L.elements
        assert is_proper(quo).ok

    def test_proper_input_has_trivial_theta(self, s5_c):
        theta, quo = theta_quotient(s5_c)
        assert theta.order == 1
        assert quo.elements == s5_c.elements

    def test_delta_outside_quasicentric_rejected(self, s4_all):
        with pytest.raises(InputError):
            theta_quotient(s4_all)


class TestQuotientLocality:
    def test_s4_mod_core(self, s4_all):
        V4 = p_core(s4_all.group, 2)
        N = PartialSubgroup(s4_all, frozenset(V4.members()))
        assert is_partial_normal(s4_all, N)
        lq = quotient_locality(s4_all, N)
        assert len(lq.locality.elements) == 6
        assert lq.locality.S.order == 2
        assert lq.rho.kernel().members == N.members
        assert lq.rho.is_projection()
        ok, witness = lq.rho.verify()
        assert ok, witness

    def test_sigma_maps_s_onto_quotient_s(self, s4_all):
        V4 = p_core(s4_all.group, 2)
        lq = quotient_locality(s4_all, PartialSubgroup(s4_all, frozenset(V4.members())))
        assert set(lq.sigma.mapping) == set(s4_all.S.members())
        assert set(lq.sigma.mapping.values()) == set(lq.locality.S.members())


class TestNormalizerLocalities:
    def test_v4_gives_whole_system(self, s4_all):
        V4 = p_core(s4_all.group, 2)
        LV = normalizer_locality(s4_all, V4)
        assert len(LV.elements) == 24
        assert LV.S.mask == s4_all.S.mask
        assert fusion_of(LV).same_homs(fusion_of(s4_all))
        assert is_proper(LV).ok

    def test_center_gives_dihedral_normalizer(self, s4_all):
        F = fusion_of(s4_all)
        Z = next(P for P in subgroups_below(s4_all.S)
                 if P.order == 2 and P.normalizer(s4_all.S).mask == s4_all.S.mask)
        LZ = normalizer_locality(s4_all, Z)
        assert LZ.S.mask == s4_all.S.mask
        assert len(LZ.elements) == 8
        assert fusion_of(LZ).same_homs(F.normalizer_system(Z))

    def test_centralizer_of_center(self, s4_all):
        F = fusion_of(s4_all)
        Z = next(P for P in subgroups_below(s4_all.S)
                 if P.order == 2 and P.normalizer(s4_all.S).mask == s4_all.S.mask)
        CZ = centralizer_locality(s4_all, Z)
        assert CZ.S.mask == Z.centralizer(s4_all.S).mask
        assert len(CZ.elements) == 8
        assert fusion_of(CZ).same_homs(F.centralizer_system(Z))

    def test_not_fully_normalized_rejected(self, s4_all):
        F = fusion_of(s4_all)
        Z = next(P for P in subgroups_below(s4_all.S)
                 if P.order == 2 and P.normalizer(s4_all.S).mask == s4_all.S.mask)
        other = next(Q for Q in F.conjugates(Z) if Q.mask != Z.mask)
        with pytest.raises(InputError):
            normalizer_locality(s4_all, other)


class TestCores:
    def test_p_group_core_is_s(self):
        G = builtin("d8")
        L = locality_from_group(G, 2, delta_of(G, 2, "all"))
        assert o_p_locality(L).mask == L.S.mask

    def test_s4_core_is_v4(self, s4_all):
        core = o_p_locality(s4_all)
        assert core.mask == p_core(s4_all.group, 2).mask
        assert core.mask == fusion_of(s4_all).o_p().mask

    def test_s5_centric_core_matches_fusion_core(self, s5_c):
        core = o_p_locality(s5_c)
        assert core.order == 4
        assert core.mask == fusion_of(s5_c).o_p().mask

    def test_o_p_of_whole_s5_centric(self, s5_c):
        whole = PartialSubgroup(s5_c, frozenset(s5_c.elements))
        core = o_p_of(s5_c, whole)
        assert core.order == 12
        G = s5_c.group
        assert all(G.elements[x] in oracles.load_elements("a5")
                   for x in core.members)

    def test_o_pprime_of_whole_contains_s(self, s5_c):
        whole = PartialSubgroup(s5_c, frozenset(s5_c.elements))
        got = o_pprime_of(s5_c, whole)
        assert set(s5_c.S.members()) <= got.members

    def test_monotone_in_the_normal_subgroup(self, s5_c):
        normals = all_partial_normal_subgroups(s5_c)
        for N in normals:
            for M in normals:
                if N.members <= M.members:
                    assert o_p_of(s5_c, N).members <= o_p_of(s5_c, M).members
                    assert o_pprime_of(s5_c, N).members <= o_pprime_of(s5_c, M).members

    def test_containment(self, s5_c):
        for N in all_partial_normal_subgroups(s5_c):
            assert o_p_of(s5_c, N).members <= N.members
            assert o_pprime_of(s5_c, N).members <= N.members

    def test_rejects_non_normal(self, s5_c):
        t = next(g for g in s5_c.elements
                 if g != 0 and s5_c.group.element_order(g) == 2)
        sub = PartialSubgroup(s5_c, frozenset({0, t}))
        if not is_partial_normal(s5_c, sub):
            with pytest.raises(InputError):
                o_p_of(s5_c, sub)


class TestPartialNormalLattice:
    def test_repeated_calls_return_equal_fresh_lists(self, s5_c):
        first = all_partial_normal_subgroups(s5_c)
        first.pop()
        second = all_partial_normal_subgroups(s5_c)
        assert len(second) == len(first) + 1
        assert second == all_partial_normal_subgroups(s5_c)
        assert all(N.pg is s5_c for N in second)

    def test_memo_matches_a_fresh_enumeration(self):
        G = builtin("s5")
        spec = delta_of(G, 2, "c")
        L = locality_from_group(G, 2, spec)
        all_partial_normal_subgroups(L)
        fresh = locality_from_group(G, 2, spec)
        assert ([N.members for N in all_partial_normal_subgroups(L)]
                == [N.members for N in all_partial_normal_subgroups(fresh)])

    def test_memo_adds_no_reference_cycle(self):
        G = builtin("s4")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        gc.collect()
        gc.disable()
        try:
            normals = all_partial_normal_subgroups(L)
            assert normals and all_partial_normal_subgroups(L) == normals
            ref = weakref.ref(L)
            del L, normals
            assert ref() is None
        finally:
            gc.enable()


class TestProducts:
    def test_trivial_factor(self, s5_c):
        triv = PartialSubgroup(s5_c, frozenset({0}))
        N = normal_closure(s5_c, [next(g for g in s5_c.elements if g != 0)])
        assert product_partial_normal(s5_c, triv, N).members == N.members

    def test_idempotent(self, s5_c):
        whole = PartialSubgroup(s5_c, frozenset(s5_c.elements))
        assert product_partial_normal(s5_c, whole, whole).members == whole.members

    def test_even_part_times_s_closure(self, s5_c):
        whole = PartialSubgroup(s5_c, frozenset(s5_c.elements))
        even = o_p_of(s5_c, whole)
        s_closure = normal_closure(s5_c, s5_c.S.members())
        got = product_partial_normal(s5_c, even, s_closure)
        assert got.members == whole.members


class TestObjectFamilyShapes:
    def test_every_object_is_subcentric(self, s4_all, s5_c):
        for L in (s4_all, s5_c):
            s_masks = {P.mask for P in fusion_of(L).class_sets()["s"]}
            assert L.delta.mask_set <= s_masks

    def test_sylow_in_object_normalizers(self, s5_c):
        F = fusion_of(s5_c)
        for P in s5_c.delta.members:
            if not F.is_fully_normalized(P):
                continue
            N = s5_c.perm_subgroup(normalizer_in(s5_c, P))
            NS = P.normalizer(s5_c.S)
            part = N.order
            while part % 2 == 0:
                part //= 2
            assert NS.order * part == N.order

    def test_conjugate_formula(self, s5_c):
        F = fusion_of(s5_c)
        for P in s5_c.delta.members:
            via_locality = set()
            for g in s5_c.elements:
                if s5_c.s_g_mask(g) & P.mask == P.mask:
                    via_locality.add(P.conjugate(g).mask)
            assert via_locality == {Q.mask for Q in F.conjugates(P)}

    def test_object_classification_via_normalizers(self, s4_all):
        """Objects are centric-radical/centric/quasicentric exactly when the
        corresponding normalizer-side condition holds."""
        L = s4_all
        F = fusion_of(L)
        cs = F.class_sets()
        cr = {P.mask for P in cs["cr"]}
        c = {P.mask for P in cs["c"]}
        q = {P.mask for P in cs["q"]}
        for P in L.delta.members:
            N = L.perm_subgroup(normalizer_in(L, P))
            C = L.perm_subgroup(centralizer_in(L, P))
            inner = N.as_group()
            core_amb = to_ambient(L.group, p_core(inner, 2))
            assert (P.mask in cr) == (core_amb == set(P.members()))
            assert (P.mask in c) == (C.mask == P.center().mask)
            assert (P.mask in q) == (set(C.members()) <= core_amb)


class TestDeltaSpecs:
    def test_s4_vocabulary(self):
        G = builtin("s4")
        F = fusion_from_group(G, 2)
        sizes = {spec: len(resolve_delta_spec(F, spec))
                 for spec in ("cr-closure", "c", "q", "s", "all-nontrivial", "all")}
        assert sizes == {"cr-closure": 2, "c": 4, "q": 9, "s": 10,
                         "all-nontrivial": 9, "all": 10}

    def test_unknown_spec(self):
        G = builtin("s4")
        F = fusion_from_group(G, 2)
        with pytest.raises(InputError):
            resolve_delta_spec(F, "everything")
