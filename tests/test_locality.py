"""Localities: construction, restriction, quotients, section operators."""

import gc
import itertools
import json
import re
import weakref
from collections import Counter
from pathlib import Path

import pytest

import oracles
from llab import checks, cli, locality, partial, permgroup
from llab.checks import ExampleContext, run_tags
from llab.errors import DomainError, InputError, PropertyViolation
from llab.fusion import FusionSystem, fusion_from_group
from llab.locality import (
    Locality,
    ObjectSet,
    centralizer_in,
    is_proper,
    locality_from_group,
    normalizer_in,
    o_p_locality,
    o_p_of,
    o_pprime_of,
    object_set,
    product_partial_normal,
    quotient_locality,
    resolve_delta_spec,
    restrict,
    theta_quotient,
)
from llab.partial import (
    PartialSubgroup,
    PGHom,
    check_axioms,
    generated_subgroup,
    is_partial_normal,
    all_partial_normal_subgroups,
    normal_closure,
)
from llab.permgroup import (
    FiniteGroup,
    Subgroup,
    group_from_generators,
    mask_members,
    mask_of,
    p_core,
    perm_order,
    pinv,
    subgroups_below,
    sylow_p,
)
from bench.workloads import generated_groups
from table_partial import UncheckedLocality, conj, fold
from test_derived_facts import (
    centralizer_locality,
    domain_words,
    is_normal_in,
    normalizer_locality,
    reference_centralizer_in,
    reference_is_projection,
    reference_kernel,
    reference_normalizer_in,
    reference_o_p_locality,
    reference_p_prime_core,
    reference_perm_subgroup,
    reference_quotient_blocks,
    reference_quotient_locality,
)
from test_expansion import frontier_growth
from test_fusion import BUILTIN_PAIRS

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"
FRONTIER = Path(__file__).resolve().parent / "frontier"


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


def cr_pairs():
    """(group file, p): every built-in group at p = 2, 3 and 5, and every
    tests/frontier group at each prime tests/frontier/runs.txt runs it at."""
    out = [(path, p) for path in sorted(DATA.glob("*.json")) for p in (2, 3, 5)]
    runs = (FRONTIER / "runs.txt").read_text()
    for name, p in re.findall(r"--group tests/frontier/(\w+)\.json --p (\d+)", runs):
        if (FRONTIER / f"{name}.json", int(p)) not in out:
            out.append((FRONTIER / f"{name}.json", int(p)))
    return out


CR_PAIRS = cr_pairs()


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
        S_elems = oracles.sylow_like_llab(G_elems)
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
        assert s5_c.s_word_mask([t]).bit_count() == 2

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
        # product checks.  Normalizers of objects and the (PL2) test read
        # the tables of S and of the normalizers' Sylow subgroups: no row.
        spec = generated_groups()["s6"]
        G = group_from_generators(spec["degree"], spec["generators"])
        L = locality_from_group(G, 3, delta_of(G, 3, "cr-closure"))
        assert len(L.elements) == 72
        built = set(G._mul_rows)
        assert len(built) <= 72
        for P in L.delta.members:
            normalizer_in(L, P)
        assert is_proper(L).ok
        assert set(G._mul_rows) == built

    def test_delta_not_overgroup_closed_rejected(self):
        G = builtin("s4")
        with pytest.raises(InputError):
            object_set(sylow_p(G.top, 2), [p_core(G.top, 2)])


class TestSgTable:
    def test_empty_word_gives_s(self, s5_c):
        assert s5_c.s_word_mask([]) == s5_c.S.mask

    def test_single_letter_matches_table(self, s5_c):
        for g in s5_c.elements:
            assert s5_c.s_word_mask([g]) == s5_c.s_g_mask(g)

    def test_inverse_relation(self, s5_c):
        G = s5_c.group
        for g in list(s5_c.elements)[:12]:
            lhs = s5_c.s_word_mask([G.inv(g)])
            rhs = mask_of(G.conj(x, g) for x in mask_members(s5_c.s_word_mask([g])))
            assert lhs == rhs

    def test_prefix_monotone(self, s5_c):
        els = list(s5_c.elements)
        for g, h in zip(els[3:9], els[10:16]):
            Sgh, Sg = s5_c.s_word_mask([g, h]), s5_c.s_word_mask([g])
            assert Sgh & Sg == Sgh

    def test_oracle_s_g_agreement(self, s5_c):
        G_elems = oracles.load_elements("s5")
        S_elems = oracles.sylow_like_llab(G_elems)
        G = s5_c.group
        for g in list(s5_c.elements)[:10]:
            want = oracles.s_g(S_elems, G.elements[g])
            got = {G.elements[x] for x in mask_members(s5_c.s_word_mask([g]))}
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

    def test_a_delta_that_is_not_f_closed_is_refused(self, monkeypatch):
        # Delta drops one of two F-conjugate involutions: a checked Locality,
        # locality_from_group and restrict each refuse it, before the pair
        # sweep tests a single word
        L = not_f_closed_locality()
        G, delta = L.group, L.delta
        assert not L.fusion().is_f_closed(delta.members)
        q = locality_from_group(G, 2, delta_of(G, 2, "q"))
        walks = []
        monkeypatch.setattr(Locality, "in_domain",
                            lambda self, word: walks.append(word))
        refusals = [
            lambda: Locality(G, L.elements, L.S, delta, 2),
            lambda: locality_from_group(G, 2, delta),
            lambda: locality_from_group(G, 2, list(delta.members)),
            lambda: restrict(q, delta),
            lambda: restrict(q, list(delta.members)),
        ]
        for build in refusals:
            with pytest.raises(InputError, match="not invariant under the fusion"):
                build()
        assert walks == []

    def test_only_s_word_mask_pulls_back(self, monkeypatch):
        # a domain test reads the image of S_w; S_w itself is asked for only
        # by s_word_mask, whose letters are ambient
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        want = reference_s_words(G, L.S, 2, L.elements)
        pulls = []
        pull_back = Locality._pull_back
        monkeypatch.setattr(Locality, "_pull_back",
                            lambda self, state: pulls.append(state) or pull_back(self, state))
        for w, m in want.items():
            assert L.in_domain(w) == (m in L.delta.mask_set), w
            if len(w) == 1:
                assert sorted(L.conjugates(*w)) == sorted(
                    G.conj(*w, g) for g in L.elements if L.in_domain((G.inv(g), *w, g)))
            if L.in_domain(w):
                assert L.product(w) == G.word(w), w
        assert sum(1 for _ in L.walk_domain(2)) < len(want)
        assert pulls == []
        assert L.s_word_mask(w) == m and len(pulls) == 1

    def test_domain_words_are_the_filtered_product(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        want = reference_s_words(G, L.S, 3, L.elements)
        expected = [w for k in (1, 2, 3) for w in itertools.product(L.elements, repeat=k)
                    if want[w] in L.delta.mask_set]
        assert len(expected) < len(want) - 1
        assert [w for w, _ in L.walk_domain(3)] == expected

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
        # the partial-domain scan, and the full-domain branch on D8 over the
        # single object S (8 of S4's 24 elements)
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        H = builtin("s4")
        d8_top = locality_from_group(H, 2, [sylow_p(H.top, 2)])
        assert not L.full_domain and d8_top.full_domain
        for K, stride in ((L, 5), (d8_top, 1)):
            outside = next(g for g in range(K.group.order) if g not in K._index)
            inside = K.elements[3]
            words = [w for w in itertools.product(K.elements[::stride], repeat=3)
                     if not K.in_domain(w)]
            assert bool(words) == (not K.full_domain)
            words += [(outside,), (inside, outside), (outside, inside),
                      (inside, inside, outside), (1, 2, -1), (inside, -1), (-1,)]
            for w in words:
                with pytest.raises(DomainError) as whole:
                    K.product(w)
                with pytest.raises(DomainError) as prefixes:
                    fold(K, w)
                assert whole.value.prefix_len == prefixes.value.prefix_len, w
            for w in [(), *itertools.product(K.elements[::stride + 4], repeat=3)]:
                if K.in_domain(w):
                    assert K.product(w) == fold(K, w)


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
                 if P.order == 4 and P.mask != s5_c.fusion().o_p().mask
                 and all(perm_order(s5_c.group.elements[x]) <= 2 for x in P.members()))
        table = s5_c.group.s_conjugation(s5_c.S.mask)
        want = {g for g in s5_c.elements
                if table.conjugate_mask(E.mask, g) == E.mask}
        got = normalizer_in(s5_c, E).members
        assert got == want

    def test_requires_subgroup_of_s(self, s4_all):
        A4 = next(P for P in subgroups_below(s4_all.group.top) if P.order == 12)
        for sweep in (normalizer_in, centralizer_in):
            with pytest.raises(InputError, match=f"^{sweep.__name__} expects P <= S$"):
                sweep(s4_all, A4)

    def test_guards_fire_on_a_carrier_missing_an_inverse(self):
        # unchecked carriers S + {g} with g of order 3: g normalizes V4 in S4
        # and centralizes S in C6, but g**-1 is not in the carrier.  A checked
        # carrier makes N_L(P) and C_L(P) subgroups for an object P, so the
        # library does not sweep them; the reference sweeps refuse these
        G = builtin("s4")
        S = sylow_p(G.top, 2)
        V4 = p_core(G.top, 2)
        g = next(x for x in range(G.order) if perm_order(G.elements[x]) == 3)
        delta = object_set(S, [Q for Q in subgroups_below(S) if V4.le(Q)])
        L = UncheckedLocality(G, list(S.members()) + [g], S, delta, 2)
        with pytest.raises(PropertyViolation, match=r"^N_L\(P\) for an object P") as exc:
            reference_normalizer_in(L, V4)
        assert exc.value.witness == (g,)
        assert g in normalizer_in(L, V4).members
        C = builtin("c6")
        T = sylow_p(C.top, 2)
        h = next(x for x in range(C.order) if perm_order(C.elements[x]) == 3)
        L = UncheckedLocality(C, list(T.members()) + [h], T, object_set(T, [T]), 2)
        with pytest.raises(PropertyViolation, match=r"^C_L\(P\) for an object P") as exc:
            reference_centralizer_in(L, T)
        assert exc.value.witness == (h,)
        assert h in centralizer_in(L, T).members


class TestCarrierGuards:
    """Each construction guard fires on a hand-built S4 carrier at p = 2."""

    def setup_method(self):
        self.G = G = builtin("s4")
        self.S = sylow_p(G.top, 2)
        self.V4 = p_core(G.top, 2)
        # every S_g contains the normal V4, so O1 holds for every element
        self.delta = object_set(self.S, [Q for Q in subgroups_below(self.S)
                                         if self.V4.le(Q)])
        self.g = next(x for x in range(G.order) if perm_order(G.elements[x]) == 3)

    def test_o1_fails(self):
        G, S = self.G, self.S
        with pytest.raises(PropertyViolation, match="^O1 fails") as exc:
            Locality(G, range(G.order), S, object_set(S, [S]), 2)
        table = G.s_conjugation(S.mask)
        assert exc.value.witness == next(x for x in range(G.order)
                                         if table.s_g(x) != S.mask)

    def test_carrier_is_not_inversion_closed(self):
        G, S, g = self.G, self.S, self.g
        with pytest.raises(PropertyViolation, match="not inversion-closed") as exc:
            Locality(G, list(S.members()) + [g], S, self.delta, 2)
        assert exc.value.witness == g

    def test_s_is_not_in_the_carrier(self):
        S = self.S
        with pytest.raises(PropertyViolation, match="S is not contained") as exc:
            Locality(self.G, self.V4.members(), S, self.delta, 2)
        assert exc.value.witness == min(set(S.members()) - set(self.V4.members()))

    def test_domain_product_escapes(self):
        G, S, g = self.G, self.S, self.g
        carrier = sorted(set(S.members()) | {g, G.inv(g)})
        with pytest.raises(PropertyViolation,
                           match="domain product escapes the carrier") as exc:
            Locality(G, carrier, S, self.delta, 2)
        x, y = exc.value.witness
        assert {x, y} <= set(carrier) and G.mult(x, y) not in carrier
        # the witness is the first such pair in carrier order, each pair
        # decided by its own walk
        U = UncheckedLocality(G, carrier, S, self.delta, 2)
        assert (x, y) == next((g, h) for g, h in itertools.product(carrier, repeat=2)
                              if U.in_domain((g, h)) and G.mult(g, h) not in carrier)

    def test_p_must_be_a_prime_of_s(self):
        # on the s4/2 cr-closure locality's own carrier, S and Delta; p = 4
        # and p = 0 come first, so code that loops on p = 1 fails before it
        G = self.G
        L = locality_from_group(G, 2, delta_of(G, 2, "cr-closure"))
        for p, message in ((4, "p = 4 is not prime"), (0, "p = 0 is not prime"),
                           (3, "S is not a 3-group"), (1, "p = 1 is not prime")):
            with pytest.raises(InputError, match=f"^{message}$"):
                Locality(G, L.elements, L.S, L.delta, p)
        for p in (0, 1):
            for ask in (lambda: G.is_p_element(1, p), lambda: L.S.is_p_group(p)):
                with pytest.raises(InputError, match=f"^p = {p} is not prime$"):
                    ask()
        assert Locality(G, L.elements, L.S, L.delta, 2).elements == L.elements

    @pytest.mark.parametrize("extra", [24, 99, -1, 1.5, "a"])
    def test_a_member_that_is_no_ambient_ordinal_is_refused(self, s4_all, extra):
        # an index past the group's last ordinal, one that wraps around, or
        # no integer at all is named as such; the identity is not missing
        with pytest.raises(InputError,
                           match=f"^{extra!r} is not an ambient group ordinal$"):
            Locality(self.G, [*s4_all.elements, extra], self.S, s4_all.delta, 2)

    def test_partial_subgroup_is_not_an_ambient_subgroup(self, s4_all):
        # negative control: the reference closure sweep refuses {1, g}
        part = PartialSubgroup(s4_all, frozenset([s4_all.identity, self.g]))
        with pytest.raises(PropertyViolation,
                           match="not an ambient subgroup") as exc:
            reference_perm_subgroup(s4_all, part)
        assert exc.value.witness == 1 | 1 << self.g


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
        assert s4_all.fusion().same_homs(fusion_from_group(s4_all.group, 2))

    def test_restriction_keeps_fusion_above_cr(self, s5_c):
        assert s5_c.fusion().same_homs(fusion_from_group(s5_c.group, 2))

    def test_c6_gives_trivial_fusion(self, c6_top):
        F = c6_top.fusion()
        assert F.same_homs(FusionSystem(c6_top.S))


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
        assert sorted(perm_order(c6_top.group.elements[x]) for x in theta.members) == [1, 3, 3]
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

    @pytest.mark.parametrize("name,p", [("c6", 2), ("c6", 3), ("s5", 3)])
    def test_verify_builds_the_quotient_once(self, monkeypatch, name, p):
        # no standard family is proper here, so ExampleContext.proper_localities
        # falls back to the cr-closure locality's quotient, and tag 2.9 asks
        # for the same quotient again
        results, quotients = [], []
        theta = locality.theta_quotient
        quotient = locality.quotient_locality

        def counted_theta(L):
            results.append(theta(L))
            return results[-1]

        def counted_quotient(L, N):
            quotients.append(N)
            return quotient(L, N)

        monkeypatch.setattr(checks, "theta_quotient", counted_theta)
        # theta_quotient's own call; growth's quotients go through expansion
        monkeypatch.setattr(locality, "quotient_locality", counted_quotient)
        assert all(res["ok"] for res in run_tags(builtin(name), p).values())
        assert len(results) == 2
        # one build, kept on the locality: the same quotient, an equal Theta
        # (the locality keeps Theta's members, not a subgroup pointing back)
        assert results[0][1] is results[1][1] and results[0][0] == results[1][0]
        assert quotients == [results[0][0]]

    @pytest.mark.parametrize("path,p", CR_PAIRS, ids=lambda v: str(getattr(v, "stem", v)))
    def test_theta_is_the_p_prime_elements_of_object_centralizers(
            self, monkeypatch, path, p):
        spec = json.loads(path.read_text())
        G = group_from_generators(spec["degree"], spec["generators"])
        L = locality_from_group(G, p, resolve_delta_spec(fusion_from_group(G, p),
                                                         "cr-closure"))
        cents = [centralizer_in(L, P).members for P in L.delta.members]
        lattices = []
        below = permgroup.subgroups_below

        def spy(H):
            lattices.append((H.group, H.mask))
            return below(H)

        monkeypatch.setattr(permgroup, "subgroups_below", spy)
        try:
            theta = theta_quotient(L)[0].members
        except InputError as exc:
            # a partial-domain L with Theta > 1 has no quotient yet (a7/2)
            assert str(exc) == "quotient realization needs a full-domain locality"
            theta = None
        monkeypatch.undo()
        # the p'-core of a centralizer that is not a p'-group is read off
        # its lattice of subgroups: theta_quotient reads none of them
        assert not {m for H, m in lattices if H is G} & {mask_of(C) for C in cents}
        cores = [set(reference_p_prime_core(Subgroup(G, mask_of(C)), p).members())
                 for C in cents]
        for C, core in zip(cents, cores):
            assert core == {x for x in C if perm_order(G.elements[x]) % p}
        if theta is not None:
            assert theta == {L.identity}.union(*cores)
        else:
            assert (path.stem, p) == ("a7", 2)


class TestQuotientLocality:
    def test_s4_mod_core(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
        N = PartialSubgroup(s4_all, frozenset(V4.members()))
        assert is_partial_normal(s4_all, N)
        lq = quotient_locality(s4_all, N)
        assert len(lq.locality.elements) == 6
        assert lq.locality.S.order == 2
        assert reference_kernel(lq.rho).members == N.members
        assert reference_is_projection(lq.rho)
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
        assert reference_kernel(lq.rho).members == N.members
        assert reference_is_projection(lq.rho)

    def test_quotient_by_the_whole_carrier_sweeps_nothing(self, monkeypatch):
        # S5 at p = 7: S = 1, so Theta = O_7'(S5) is the whole carrier, a
        # partial normal subgroup that is its own one coset, and L/Theta is
        # the trivial group: no class table is built, and its one block
        # makes one block product.
        G = builtin("s5")
        L = locality_from_group(G, 7, delta_of(G, 7, "cr-closure"))
        tables, products, inside = [], [], []
        real_table, real_mult = partial._class_table, FiniteGroup.mult
        real_quotient = locality.quotient_locality

        def table(pg):
            tables.append(pg)
            return real_table(pg)

        def mult(self, i, j):
            if inside:
                products.append((i, j))
            return real_mult(self, i, j)

        def quotient(L, N):
            inside.append(N)
            try:
                return real_quotient(L, N)
            finally:
                inside.pop()

        monkeypatch.setattr(partial, "_class_table", table)
        monkeypatch.setattr(FiniteGroup, "mult", mult)
        monkeypatch.setattr(locality, "quotient_locality", quotient)
        theta, quo = theta_quotient(L)
        assert theta.order == len(L.elements) == 120 and len(quo.elements) == 1
        assert tables == []
        # the only products are the block product 1*1 in L, and sigma's
        # check on S x S, 1*1 in L and in Q
        assert products == [(0, 0)] * 3

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
        # quotient_locality takes rho as a homomorphism by its argument; the
        # reference reads the sweep's verdict
        monkeypatch.setattr(PGHom, "verify",
                            lambda self, max_len=3: (False, ("product", ())))
        V4 = PartialSubgroup(s4_all, frozenset(p_core(s4_all.group.top, 2).members()))
        quotient_locality(s4_all, V4)
        with pytest.raises(PropertyViolation, match="not a homomorphism"):
            reference_quotient_locality(s4_all, V4)

    def test_representative_dependence_detected(self, s4_all):
        # quotient_locality multiplies least representatives by its argument
        # (N is normal in the group L); the reference sweeps every product
        # and is compared in check_carrier.  Negative control: the right
        # cosets of a non-normal subgroup
        G = s4_all.group
        H = frozenset({0, G.index_of((1, 0, 2, 3))})
        cosets = sorted({frozenset(G.mult(h, g) for h in H) for g in s4_all.elements},
                        key=min)
        with pytest.raises(PropertyViolation, match="representative-independent"):
            reference_quotient_blocks(s4_all, cosets)


class TestNormalizerLocalities:
    # N_L(V) and C_L(V) are built in tests/test_derived_facts.py; no command
    # builds them
    def test_v4_gives_whole_system(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
        LV = normalizer_locality(s4_all, V4)
        assert len(LV.elements) == 24
        assert LV.S.mask == s4_all.S.mask
        assert LV.fusion().same_homs(s4_all.fusion())
        assert is_proper(LV).ok

    def test_center_gives_dihedral_normalizer(self, s4_all):
        F = s4_all.fusion()
        Z = next(P for P in subgroups_below(s4_all.S)
                 if P.order == 2 and P.normalizer(s4_all.S).mask == s4_all.S.mask)
        LZ = normalizer_locality(s4_all, Z)
        assert LZ.S.mask == s4_all.S.mask
        assert len(LZ.elements) == 8
        assert LZ.fusion().same_homs(F.normalizer_system(Z))

    def test_centralizer_of_center(self, s4_all):
        F = s4_all.fusion()
        Z = next(P for P in subgroups_below(s4_all.S)
                 if P.order == 2 and P.normalizer(s4_all.S).mask == s4_all.S.mask)
        CZ = centralizer_locality(s4_all, Z)
        assert CZ.S.mask == Z.centralizer(s4_all.S).mask
        assert len(CZ.elements) == 8
        assert CZ.fusion().same_homs(F.centralizer_system(Z))

    def test_centric_base_is_built_once(self, monkeypatch):
        # the s5/2 cr-closure locality is grown to F^c and cut back once,
        # not once per normalizer and centralizer locality
        from llab import expansion

        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "cr-closure"))
        F = L.fusion()
        calls = Counter()
        full_expand, restrict_ = expansion.full_expand, locality.restrict

        def counted_expand(*args):
            calls["full_expand"] += 1
            return full_expand(*args)

        def counted_restrict(*args):
            calls["restrict"] += 1
            return restrict_(*args)

        monkeypatch.setattr(expansion, "full_expand", counted_expand)
        monkeypatch.setattr(locality, "restrict", counted_restrict)
        vs = [V for V in F.subs if F.is_fully_normalized(V)]
        for V in vs:
            normalizer_locality(L, V)
            centralizer_locality(L, V)
        assert len(vs) == 8
        assert calls == {"full_expand": 1, "restrict": 1}

    def test_not_fully_normalized_rejected(self, s4_all):
        F = s4_all.fusion()
        Z = next(P for P in subgroups_below(s4_all.S)
                 if P.order == 2 and P.normalizer(s4_all.S).mask == s4_all.S.mask)
        other = next(Q for Q in F.conjugates(Z) if Q.mask != Z.mask)
        with pytest.raises(InputError):
            normalizer_locality(s4_all, other)


def reference_is_normal_in_locality(L, P):
    """P normal in S, partial normal in L, and P**g = P whenever P <= S_g."""
    if not is_normal_in(P, L.S) or not is_partial_normal(
            L, PartialSubgroup(L, frozenset(P.members()))):
        return False
    pm = P.mask
    G = L.group
    return all(L.s_g_mask(g) & pm != pm or mask_of(G.conj(x, g) for x in P.members()) == pm
               for g in L.elements)


class TestCores:
    def test_p_group_core_is_s(self):
        G = builtin("d8")
        L = locality_from_group(G, 2, delta_of(G, 2, "all"))
        assert o_p_locality(L).mask == L.S.mask

    def test_s4_core_is_v4(self, s4_all):
        core = o_p_locality(s4_all)
        assert core.mask == p_core(s4_all.group.top, 2).mask
        assert core.mask == s4_all.fusion().o_p().mask

    def test_s5_centric_core_matches_fusion_core(self, s5_c):
        core = o_p_locality(s5_c)
        assert core.order == 4
        assert core.mask == s5_c.fusion().o_p().mask

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
                        is_normal_in(P, L.S)
                        and is_partial_normal(L, PartialSubgroup(L, frozenset(P.members())))), (name, p, P)
                    decided += 1
                assert o_p_locality(L).mask == reference_o_p_locality(L).mask
        assert decided == 180

    def test_rejects_non_normal(self, s5_c):
        t = next(g for g in s5_c.elements
                 if g != 0 and perm_order(s5_c.group.elements[g]) == 2)
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


def conj_carriers():
    """s5/2 on F^q; D8 over its one object, full domain on 8 of S4's 24
    elements; and the frontier's a6/2, s6/2 and PSL(2,7)/2 bases and
    growths, which have partial domains."""
    G = builtin("s5")
    yield locality_from_group(G, 2, delta_of(G, 2, "q"))
    G = builtin("s4")
    d8_top = locality_from_group(G, 2, [sylow_p(G.top, 2)])
    assert d8_top.full_domain and len(d8_top.elements) < G.order
    yield d8_top
    for name in ("a6", "s6", "psl27"):
        fe = frontier_growth(name, 2)
        yield from (fe.base, fe.locality)


def check_conj(L):
    """`Locality.conjugates` against the reference `conj`, the fold of
    (g**-1, x, g) where the walker puts it in D, over every g of the carrier;
    an x outside the carrier is refused."""
    G = L.group
    carrier = set(L.elements)
    defined = 0
    for x in L.elements:
        got = L.conjugates(x)
        assert sorted(got) == sorted(
            z for g in L.elements if (z := conj(L, x, g)) is not None), x
        defined += len(got)
    assert defined and (defined < len(carrier) ** 2) == (not L.full_domain)
    # every ambient ordinal outside the carrier on the small groups, one on
    # the frontier ones, and two that are no ordinal
    outside = [g for g in range(G.order) if g not in carrier]
    for x in [*(outside if G.order <= 120 else outside[:1]), -1, G.order]:
        with pytest.raises(InputError, match="not an element"):
            L.conjugates(x)
    # no out-of-range ordinal entered the inverse table
    assert all(G.inv(g) == G.index_of(pinv(G.elements[g])) for g in G._inv)


class TestClosuresOnPartialDomain:
    @pytest.fixture(scope="class")
    def s5_q(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        assert not L.full_domain
        return L

    def test_conj_matches_the_product_fold(self):
        for L in conj_carriers():
            check_conj(L)

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
        # neighbouring pairs reach products of an old element by a fresh one
        seeds += [els[i:i + 2] for i in range(len(els) - 1)]
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
            s_masks = {P.mask for P in L.fusion().class_sets()["s"]}
            assert L.delta.mask_set <= s_masks

    def test_sylow_in_object_normalizers(self, s5_c):
        F = s5_c.fusion()
        for P in s5_c.delta.members:
            if not F.is_fully_normalized(P):
                continue
            N = reference_perm_subgroup(s5_c, normalizer_in(s5_c, P))
            NS = P.normalizer(s5_c.S)
            part = N.order
            while part % 2 == 0:
                part //= 2
            assert NS.order * part == N.order

    def test_conjugate_formula(self, s5_c):
        F = s5_c.fusion()
        table = s5_c.group.s_conjugation(s5_c.S.mask)
        for P in s5_c.delta.members:
            via_locality = set()
            for g in s5_c.elements:
                if s5_c.s_g_mask(g) & P.mask == P.mask:
                    via_locality.add(table.conjugate_mask(P.mask, g))
            assert via_locality == {Q.mask for Q in F.conjugates(P)}

    def test_object_classification_via_normalizers(self, s4_all):
        """Objects are centric-radical/centric/quasicentric exactly when the
        corresponding normalizer-side condition holds."""
        L = s4_all
        F = L.fusion()
        cs = F.class_sets()
        cr = {P.mask for P in cs["cr"]}
        c = {P.mask for P in cs["c"]}
        q = {P.mask for P in cs["q"]}
        for P in L.delta.members:
            N = reference_perm_subgroup(L, normalizer_in(L, P))
            C = reference_perm_subgroup(L, centralizer_in(L, P))
            core_amb = set(p_core(N, 2).members())
            assert (P.mask in cr) == (core_amb == set(P.members()))
            assert (P.mask in c) == (C.mask == P.centralizer(P).mask)
            assert (P.mask in q) == (set(C.members()) <= core_amb)


class TestDeltaSpecs:
    def test_s4_vocabulary(self):
        G = builtin("s4")
        F = fusion_from_group(G, 2)
        sizes = {spec: len(resolve_delta_spec(F, spec)) for spec in locality.DELTA_SPECS}
        assert sizes == {"cr-closure": 2, "c": 4, "q": 9, "s": 10,
                         "all-nontrivial": 9, "all": 10}

    def test_the_cli_offers_the_same_names(self):
        assert cli.DELTA_SPECS is locality.DELTA_SPECS

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
            seen.update(mask_of(G.conj(x, g) for x in S.members()) for g in range(G.order))
    return out


def candidate_carriers():
    """(S, Delta, carrier) for every p-subgroup S up to conjugacy and every
    up-set Delta of its subgroups, carrier {g : S_g in Delta}, kept when it
    passes the other construction checks."""
    for name, primes in (("s4", (2, 3)), ("d8", (2,)), ("a4", (2, 3)),
                         ("a5", (2, 3, 5)), ("s5", (2, 3, 5))):
        G = builtin(name)
        subs = subgroups_below(G.top)
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
                 if P.order == 2 and is_normal_in(P, G.top))
        delta = object_set(S, [S])
        with pytest.raises(PropertyViolation,
                           match="S is not a maximal p-subgroup") as exc:
            Locality(G, range(G.order), S, delta, 2)
        x = exc.value.witness
        assert x not in S and G.is_p_element(x, 2)
        assert G.s_conjugation(S.mask).conjugate_mask(S.mask, x) == S.mask

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
    for w in domain_words(src, max_len):
        fw = tuple(m[x] for x in w)
        if not tgt.in_domain(fw):
            return False, ("domain", w)
        if m[src.product(w)] != tgt.product(fw):
            return False, ("product", w)
    return True, None


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

    def test_projection_lifts_through_the_source_domain(self):
        G = builtin("s5")
        L = locality_from_group(G, 2, delta_of(G, 2, "q"))
        ident = PGHom(L, L, {g: g for g in L.elements})
        assert reference_is_projection(ident, 2)
        # the same carrier with every subgroup of S an object: a pair whose
        # S_w is not in q is a target word that no source word lifts
        wide = UncheckedLocality(G, L.elements, L.S,
                                 object_set(L.S, subgroups_below(L.S)), 2)
        onto = PGHom(L, wide, {g: g for g in L.elements})
        assert onto.verify()[0]
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

    def test_quotient_projection_lifts_every_word(self, s4_all):
        V4 = p_core(s4_all.group.top, 2)
        rho = quotient_locality(
            s4_all, PartialSubgroup(s4_all, frozenset(V4.members()))).rho
        assert reference_is_projection(rho)
        lbar = rho.target
        trivial = PGHom(s4_all, lbar, {g: lbar.identity for g in s4_all.elements})
        assert trivial.verify()[0]
        assert not reference_is_projection(trivial)
