"""Localities: construction, restriction, quotients, section operators."""

import gc
import itertools
import json
import weakref
from pathlib import Path

import pytest

import oracles
from llab.checks import ExampleContext
from llab.errors import DomainError, InputError, PropertyViolation
from llab.fusion import fusion_from_group
from llab.locality import (
    Locality,
    ObjectSet,
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
    PGHom,
    check_axioms,
    generated_subgroup,
    is_partial_normal,
    all_partial_normal_subgroups,
    normal_closure,
)
from llab.permgroup import (
    Subgroup,
    all_subgroups,
    group_from_generators,
    p_core,
    subgroups_below,
    sylow_p,
)
from bench.workloads import generated_groups
from table_partial import UncheckedLocality
from test_fusion import BUILTIN_PAIRS

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
    S = sylow_p(G.top, 2)
    return locality_from_group(G, 2, [S])


class TestFromGroup:
    def test_s4_overgroups_of_core_is_everything(self):
        G = builtin("s4")
        S = sylow_p(G.top, 2)
        V4 = p_core(G.top, 2)
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
        S = sylow_p(G.top, 2)
        z = next(P for P in subgroups_below(S)
                 if P.order == 2 and P.normalizer(S).mask == S.mask)
        V4 = p_core(G.top, 2)
        bad = [Q for Q in subgroups_below(S) if V4.le(Q)] + [z]
        with pytest.raises(InputError):
            locality_from_group(G, 2, bad)

    def test_s6_builds_only_the_rows_of_carrier_products(self):
        # S6 (order 720) is under the 1024-order row cache, where a sweep
        # through `mult` builds whole Cayley rows, all 720 of them for a
        # sweep over the group.  The conjugation sweeps (Sylow search,
        # fusion, S_g, the invariant core) read S's conjugation table, so
        # the only rows are those of the 72 carrier elements, from the
        # product checks.
        spec = generated_groups()["s6"]
        G = group_from_generators(spec["degree"], spec["generators"])
        L = locality_from_group(G, 3, delta_of(G, 3, "cr-closure"))
        assert len(L.elements) == 72
        assert len(G._mul_rows) <= 72

    def test_delta_not_overgroup_closed_rejected(self):
        G = builtin("s4")
        with pytest.raises(InputError):
            object_set(sylow_p(G.top, 2), [p_core(G.top, 2)])


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


def not_f_closed_locality():
    """Unchecked s5/2 carrier whose Delta is not F-closed.

    Delta is the q family minus one of two F-conjugate involutions of S,
    and the carrier is the cut {g : S_g in Delta}.
    """
    G = builtin("s5")
    F = fusion_from_group(G, 2)
    q = resolve_delta_spec(F, "q")
    drop = next(P for P in q if P.order == 2)
    delta = object_set(F.S, [P for P in q if P.mask != drop.mask])
    table = G.s_conjugation(F.S.mask)
    carrier = [g for g in range(G.order) if table.s_g(g) in delta.mask_set]
    return UncheckedLocality(G, carrier, F.S, delta, 2)


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
            # the walker, one step from the state of each word's prefix; the
            # reference lists every prefix before its extensions
            states = {(): L.walk_start()}
            for w, m in want.items():
                if not w:
                    continue
                st = L.walk_step(states[w[:-1]], w[-1])
                if len(w) < max_len:
                    states[w] = st
                assert L._pull_back(st) == m, (L, w)
                assert L.walk_product(st) == G.word(w), (L, w)

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

    def test_in_domain_pulls_back_when_delta_is_not_f_closed(self):
        # S_w and its image under the word's product are F-conjugate, so on
        # an F-closed Delta the pull-back changes no answer; here Delta drops
        # one of two F-conjugate involutions, and it does
        L = not_f_closed_locality()
        G, delta = L.group, L.delta
        assert not L.fusion().is_f_closed(delta.members)
        want = reference_s_words(G, L.S, 2, L.elements)
        image_decides = 0
        for w, m in want.items():
            assert L.in_domain(w) == (m in delta.mask_set), w
            if L.in_domain(w):
                assert L.product(w) == G.word(w), w
            image_decides += (L.walk(w)[0] in delta.mask_set) != (m in delta.mask_set)
        assert image_decides > 0

    def test_domain_words_are_the_filtered_product(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        want = reference_s_words(G, L.S, 3, L.elements)
        expected = [w for k in (1, 2, 3) for w in itertools.product(L.elements, repeat=k)
                    if want[w] in L.delta.mask_set]
        assert len(expected) < len(want) - 1
        assert list(L.domain_words(3)) == expected

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
        V4 = p_core(s4_all.group.top, 2)
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
        S = sylow_p(G.top, 2)
        V4 = p_core(G.top, 2)
        g = next(x for x in range(G.order) if G.element_order(x) == 3)
        delta = object_set(S, [Q for Q in subgroups_below(S) if V4.le(Q)])
        L = UncheckedLocality(G, list(S.members()) + [g], S, delta, 2)
        with pytest.raises(PropertyViolation, match=r"^N_L\(P\) for an object P") as exc:
            normalizer_in(L, V4)
        assert exc.value.witness == (g,)
        C = builtin("c6")
        T = sylow_p(C.top, 2)
        h = next(x for x in range(C.order) if C.element_order(x) == 3)
        L = UncheckedLocality(C, list(T.members()) + [h], T, object_set(T, [T]), 2)
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
        V4 = p_core(s4_all.group.top, 2)
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

    def test_s3_at_three_is_already_clean(self):
        G = builtin("s3")
        S = sylow_p(G.top, 3)
        L = locality_from_group(G, 3, [S])
        assert len(L.elements) == 6
        theta, quo = theta_quotient(L)
        assert theta.order == 1
        assert quo.elements == L.elements
        assert is_proper(quo).ok

    def test_proper_input_has_trivial_theta(self, s5_c):
        assert is_proper(s5_c).ok
        theta, quo = theta_quotient(s5_c)
        assert theta.order == 1
        assert quo is s5_c  # L/1 = L, not a re-validated copy

    def test_delta_outside_quasicentric_rejected(self, s4_all):
        with pytest.raises(InputError):
            theta_quotient(s4_all)


class TestQuotientLocality:
    def test_s4_mod_core(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
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
        V4 = p_core(s4_all.group.top, 2)
        lq = quotient_locality(s4_all, PartialSubgroup(s4_all, frozenset(V4.members())))
        assert set(lq.sigma.mapping) == set(s4_all.S.members())
        assert set(lq.sigma.mapping.values()) == set(lq.locality.S.members())

    @pytest.mark.parametrize("name, n_order, q_order",
                             [("c6", 3, 2), ("s4", 1, 24), ("s4", 4, 6)])
    def test_quotient_is_a_locality_with_kernel_n(self, name, n_order, q_order):
        G = builtin(name)
        L = locality_from_group(G, 2, delta_of(G, 2, "all"))
        assert L.full_domain
        N = next(n for n in all_partial_normal_subgroups(L) if n.order == n_order)
        lq = quotient_locality(L, N)
        assert len(lq.locality.elements) == len(lq.blocks) == q_order
        assert check_axioms(lq.locality).ok
        assert lq.rho.kernel().members == N.members
        assert lq.rho.is_projection()

    def test_non_normal_subgroup_rejected(self, s4_all):
        G = s4_all.group
        N = PartialSubgroup(s4_all, frozenset({0, G.index_of((1, 0, 2, 3))}))
        with pytest.raises(InputError):
            quotient_locality(s4_all, N)

    def test_partial_domain_rejected(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        assert not L.full_domain
        with pytest.raises(InputError):
            quotient_locality(L, PartialSubgroup(L, frozenset({L.identity})))

    def test_projection_guard_fires(self, s4_all, monkeypatch):
        monkeypatch.setattr(PGHom, "verify",
                            lambda self, max_len=3: (False, ("product", ())))
        V4 = p_core(s4_all.group.top, 2)
        with pytest.raises(PropertyViolation, match="not a homomorphism"):
            quotient_locality(s4_all, PartialSubgroup(s4_all, frozenset(V4.members())))

    def test_representative_dependence_detected(self, s4_all, monkeypatch):
        # right cosets of a non-normal subgroup, passed off as the partition
        G = s4_all.group
        H = frozenset({0, G.index_of((1, 0, 2, 3))})
        cosets = sorted({frozenset(G.mult(h, g) for h in H) for g in s4_all.elements},
                        key=min)
        monkeypatch.setattr("llab.locality.coset_partition", lambda L, N: tuple(cosets))
        with pytest.raises(PropertyViolation, match="representative-independent"):
            quotient_locality(s4_all, PartialSubgroup(s4_all, H))


class TestNormalizerLocalities:
    def test_v4_gives_whole_system(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
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


def reference_is_normal_in_locality(L, P):
    """P normal in S, partial normal in L, and P**g = P whenever P <= S_g."""
    if not P.is_normal_in(L.S) or not is_partial_normal(L, L.sub(P.members())):
        return False
    pm = P.mask
    return all(L.s_g_mask(g) & pm != pm or P.conjugate(g).mask == pm
               for g in L.elements)


def reference_o_p_locality(L):
    """O_p(L) by the descending scan with the subgroup-level conjugate test."""
    winners = [P for P in subgroups_below(L.S) if reference_is_normal_in_locality(L, P)]
    assert all(P.le(winners[0]) for P in winners)
    return winners[0]


class TestCores:
    def test_p_group_core_is_s(self):
        G = builtin("d8")
        L = locality_from_group(G, 2, delta_of(G, 2, "all"))
        assert o_p_locality(L).mask == L.S.mask

    def test_s4_core_is_v4(self, s4_all):
        core = o_p_locality(s4_all)
        assert core.mask == p_core(s4_all.group.top, 2).mask
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

    def test_one_sweep_matches_the_subgroup_scan(self):
        decided = 0
        for name, p in BUILTIN_PAIRS:
            ctx = ExampleContext(builtin(name), p)
            for L in [ctx.cr_locality, *ctx.proper_localities]:
                for P in subgroups_below(L.S):
                    assert reference_is_normal_in_locality(L, P) == (
                        P.is_normal_in(L.S)
                        and is_partial_normal(L, L.sub(P.members()))), (name, p, P)
                    decided += 1
                assert o_p_locality(L).mask == reference_o_p_locality(L).mask
        assert decided == 180

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


class TestClosuresOnPartialDomain:
    @pytest.fixture(scope="class")
    def s5_q(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        assert not L.full_domain
        return L

    def test_conj_matches_the_product_fold(self, s5_q):
        # D8 over the single object S: full domain on 8 of S4's 24 elements
        G = builtin("s4")
        d8_top = locality_from_group(G, 2, [sylow_p(G.top, 2)])
        assert d8_top.full_domain and len(d8_top.elements) < G.order
        for L in (s5_q, d8_top):
            carrier = set(L.elements)
            counts = {"outside": 0, "defined": 0, "undefined": 0}
            for g, x in itertools.product(range(L.group.order), repeat=2):
                got = L.conj(x, g)
                if not {x, g} <= carrier:
                    assert got is None
                    counts["outside"] += 1
                    continue
                w = (L.inv(g), x, g)
                if L.in_domain(w):
                    assert got == PartialGroup.product(L, w)
                    counts["defined"] += 1
                else:
                    assert got is None
                    counts["undefined"] += 1
            assert counts["outside"] and counts["defined"]
            assert bool(counts["undefined"]) == (not L.full_domain)

    def test_generated_subgroup_matches_naive_fixpoint(self, s5_q):
        def naive(xs):  # re-tests every pair in every round
            cur = set(xs) | {s5_q.identity}
            while True:
                new = {s5_q.inv(x) for x in cur}
                new |= {s5_q.binary(x, y) for x, y in itertools.product(cur, repeat=2)
                        if s5_q.in_domain((x, y))}
                if new <= cur:
                    return frozenset(cur)
                cur |= new

        els = s5_q.elements
        seeds = [els[1:2], els[5:7], els[-3:], list(s5_q.S.members()) + [els[-1]],
                 els[::9]]
        for xs in seeds:
            assert generated_subgroup(s5_q, xs).members == naive(xs), xs


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
            core_amb = set(p_core(N, 2).members())
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


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def reference_s_maximal(L):
    """The generated-subgroup test: no p-element x outside S such that S
    and x generate a partial subgroup of p-elements."""
    G = L.group
    for x in L.elements:
        if x in L.S or not G.is_p_element(x, L.p):
            continue
        grown = generated_subgroup(L, list(L.S.members()) + [x])
        if all(G.is_p_element(y, L.p) for y in grown.members):
            return False
    return True


def _up_sets(S):
    """Every overgroup-closed family of subgroups of S that contains S."""
    below = subgroups_below(S)
    overs = {Q.mask: [R.mask for R in below if Q.le(R) and R.mask != Q.mask]
             for Q in below}
    found = {frozenset([S.mask])}
    frontier = list(found)
    while frontier:
        nxt = []
        for u in frontier:
            for Q in below:
                if Q.mask not in u and all(m in u for m in overs[Q.mask]):
                    v = u | {Q.mask}
                    if v not in found:
                        found.add(v)
                        nxt.append(v)
        frontier = nxt
    return [tuple(sorted((Q for Q in below if Q.mask in u), key=Subgroup.key))
            for u in sorted(found, key=lambda u: (len(u), sorted(u)))]


def _conjugacy_representatives(G, subs):
    seen, out = set(), []
    for S in subs:
        if S.mask not in seen:
            out.append(S)
            seen.update(S.conjugate(g).mask for g in range(G.order))
    return out


def candidate_carriers():
    """(S, Delta, carrier) for every p-subgroup S up to conjugacy and every
    up-set Delta of its subgroups, carrier {g : S_g in Delta}, kept when it
    passes the other construction checks."""
    for name, primes in (("s4", (2, 3)), ("d8", (2,)), ("a4", (2, 3)),
                         ("a5", (2, 3, 5)), ("s5", (2, 3, 5))):
        G = builtin(name)
        subs = all_subgroups(G)
        for p in primes:
            psubs = [S for S in subs if S.order > 1 and _is_p_power(S.order, p)]
            for S in _conjugacy_representatives(G, psubs):
                for members in _up_sets(S):
                    delta = ObjectSet(S, members)
                    table = G.s_conjugation(S.mask)
                    carrier = [g for g in range(G.order)
                               if table.s_g(g) in delta.mask_set]
                    L = UncheckedLocality(G, carrier, S, delta, p)
                    closed = all(G.inv(g) in L._index for g in L.elements) and all(
                        G.mult(g, h) in L._index
                        for g, h in itertools.product(L.elements, repeat=2)
                        if L.in_domain((g, h))
                    )
                    if closed:
                        yield L


class TestSMaximality:
    @pytest.mark.parametrize("name", ["c4", "d8"])
    def test_normal_c2_below_a_2_group_is_refused(self, name):
        # S is a normal C2 of a 2-group, Delta = {S}, the whole group as
        # carrier: every other construction check passes
        G = (group_from_generators(4, [[1, 2, 3, 0]]) if name == "c4"
             else builtin("d8"))
        S = next(P for P in subgroups_below(G.top)
                 if P.order == 2 and P.is_normal_in(G.top))
        delta = object_set(S, [S])
        with pytest.raises(PropertyViolation,
                           match="S is not a maximal p-subgroup") as exc:
            Locality(G, range(G.order), S, delta, 2)
        x = exc.value.witness
        assert x not in S and G.is_p_element(x, 2)
        assert S.conjugate(x).mask == S.mask

    def test_matches_the_generated_subgroup_test(self):
        counts = {True: 0, False: 0}
        for L in candidate_carriers():
            want = reference_s_maximal(L)
            try:
                L._check_s_maximal()
                got = True
            except PropertyViolation:
                got = False
            assert got == want, L
            counts[want] += 1
        assert counts == {True: 203, False: 77}


def reference_verify(h, max_len=3):
    """The general word sweep of PGHom.verify, written out."""
    src, tgt, m = h.source, h.target, h.mapping
    if m[src.identity] != tgt.identity:
        return False, ("identity", ())
    for w in src.domain_words(max_len):
        fw = tuple(m[x] for x in w)
        if not tgt.in_domain(fw):
            return False, ("domain", w)
        if m[src.product(w)] != tgt.product(fw):
            return False, ("product", w)
    return True, None


def reference_is_projection(h, max_len=3):
    """Every target domain word lifts to a source domain word, letter by letter."""
    src = h.source
    fibers = {}
    for x, fx in h.mapping.items():
        fibers.setdefault(fx, []).append(x)

    def lifts(prefix, rest):
        if not rest:
            return True
        return any(src.in_domain(prefix + (x,)) and lifts(prefix + (x,), rest[1:])
                   for x in fibers.get(rest[0], ()))

    return all(lifts((), w) for w in h.target.domain_words(max_len))


class TestPartialDomainHoms:
    def test_verify_answers_each_max_len(self):
        # two swapped elements respect every length-1 word but not (1, 1)
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        assert not L.full_domain
        swapped = {g: g for g in L.elements}
        swapped[1], swapped[4] = 4, 1
        h = PGHom(L, L, swapped)
        assert h.verify(max_len=1) == (True, None)
        assert h.verify(max_len=2) == (False, ("product", (1, 1)))
        assert h.verify(max_len=1) == (True, None)
        assert PGHom(L, L, swapped).verify(max_len=2) == h.verify(max_len=2)
        assert reference_verify(h, max_len=2) == h.verify(max_len=2)

    def test_projection_checks_the_hom_on_its_own_words(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        h = PGHom(L, L, {g: g for g in L.elements})
        assert h.is_projection(max_len=2)
        assert set(h._verified) == {2}

    def test_projection_lifts_through_the_source_domain(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        ident = PGHom(L, L, {g: g for g in L.elements})
        assert ident.is_projection(max_len=2) and reference_is_projection(ident, 2)
        # the same carrier with every subgroup of S an object: a pair whose
        # S_w is not in q is a target word that no source word lifts
        wide = UncheckedLocality(G, L.elements, L.S,
                                 object_set(L.S, subgroups_below(L.S)), 2)
        onto = PGHom(L, wide, {g: g for g in L.elements})
        assert onto.verify()[0]
        assert not onto.is_projection(max_len=2)
        assert not reference_is_projection(onto, 2)


class TestFullDomainHoms:
    def _maps(self, L):
        G = L.group
        ident = {g: g for g in L.elements}
        swapped = dict(ident)
        a, b = L.elements[5], L.elements[9]
        swapped[a], swapped[b] = b, a
        t = L.elements[1]
        return {
            "identity": ident,
            "inner": {g: G.conj(g, t) for g in L.elements},
            "inverse": {g: G.inv(g) for g in L.elements},
            "swapped": swapped,
            "bad_identity": {g: t for g in L.elements},
        }

    def test_pair_test_reports_the_sweep_witness(self, s4_all):
        assert s4_all.full_domain
        verdicts = {}
        for what, mapping in self._maps(s4_all).items():
            got = PGHom(s4_all, s4_all, mapping).verify()
            assert got == reference_verify(PGHom(s4_all, s4_all, mapping)), what
            verdicts[what] = got[0]
        assert verdicts == {"identity": True, "inner": True, "inverse": False,
                            "swapped": False, "bad_identity": False}

    def test_pair_test_on_a_quotient_projection(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
        rho = quotient_locality(
            s4_all, PartialSubgroup(s4_all, frozenset(V4.members()))).rho
        assert PGHom(rho.source, rho.target, rho.mapping).verify() == (True, None)
        bent = dict(rho.mapping)
        x = next(g for g in s4_all.elements if bent[g] != rho.target.identity)
        bent[x] = rho.target.identity
        h = PGHom(rho.source, rho.target, bent)
        assert h.verify() == reference_verify(h)
        assert not h.verify()[0]

    def test_projection_matches_the_lifting_reference(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
        rho = quotient_locality(
            s4_all, PartialSubgroup(s4_all, frozenset(V4.members()))).rho
        assert rho.is_projection() and reference_is_projection(rho)
        lbar = rho.target
        trivial = PGHom(s4_all, lbar, {g: lbar.identity for g in s4_all.elements})
        assert trivial.verify()[0]
        assert not trivial.is_projection()
        assert not reference_is_projection(trivial)
