"""Partial group substrate: axioms, closures, normality, cosets, homs."""

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab import caps, partial
from llab.checks import ExampleContext
from llab.errors import CapExceeded, DomainError, InputError, PropertyViolation
from llab.expansion import lift_normal
from llab.fusion import fusion_from_group
from llab.locality import (
    Locality,
    locality_from_group,
    o_p_of,
    o_pprime_of,
    resolve_delta_spec,
)
from llab.partial import (
    PartialSubgroup,
    PGHom,
    all_partial_normal_subgroups,
    check_axioms,
    coset_partition,
    generated_subgroup,
    is_partial_normal,
    normal_closure,
)
from llab.permgroup import (
    FiniteGroup,
    group_from_generators,
    mask_members,
    mask_of,
    subgroups_below,
)
from table_partial import GroupPartial, TablePartial, conj
from test_axiom_sweep import c2_table
from test_axiom_sweep import z4_table as axiom_z4_table
from test_derived_facts import (
    normal_subgroups,
    orbit_representatives,
    reference_is_projection,
    reference_kernel,
    reference_relative_core,
)
from test_expansion import example, frontier_growth
from test_fusion import BUILTIN_PAIRS

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"
# AGammaL(1, 8) on the 8 points of GF(8): x + 1, multiplication by a
# generator, and the Frobenius x -> x**2; order 168
AGL_1_8 = [[1, 0, 3, 2, 5, 4, 7, 6], [0, 2, 4, 6, 3, 1, 7, 5],
           [0, 1, 4, 5, 6, 7, 2, 3]]


def builtin(name) -> FiniteGroup:
    spec = json.loads((DATA / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


@pytest.fixture(scope="module")
def s4():
    return builtin("s4")


@pytest.fixture(scope="module")
def s4p(s4):
    return GroupPartial(s4)


def z4_table(corrupt=False):
    els = (0, 1, 2, 3)
    inverses = {0: 0, 1: 3, 2: 2, 3: 1}
    products = {(x, y): (x + y) % 4 for x in els for y in els}
    if corrupt:
        products[(1, 1)] = 3
    return TablePartial(els, 0, inverses, products)


class TestProduct:
    def test_length_one_word_is_identity_map(self, s4p):
        for x in s4p.elements:
            assert s4p.product((x,)) == x

    def test_empty_word_gives_identity(self, s4p):
        assert s4p.product(()) == s4p.identity

    @settings(max_examples=60)
    @given(st.data())
    def test_group_partial_product_matches_group_word(self, data):
        group = builtin("s4")
        pg = GroupPartial(group)
        word = data.draw(
            st.lists(st.integers(0, group.order - 1), min_size=1, max_size=5)
        )
        assert pg.product(tuple(word)) == group.word(word)

    @settings(max_examples=60)
    @given(st.data())
    def test_inverse_word_product_is_inverse(self, data):
        group = builtin("d8")
        pg = GroupPartial(group)
        word = tuple(
            data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4))
        )
        wi = tuple(pg.inv(x) for x in reversed(word))
        assert pg.product(wi) == pg.inv(pg.product(word))
        assert pg.product(wi + word) == pg.identity

    def test_out_of_domain_names_first_failing_prefix(self):
        els = ("e", "a")
        products = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"}
        pg = TablePartial(els, "e", {"e": "e", "a": "a"}, products)
        with pytest.raises(DomainError) as err:
            pg.product(("e", "a", "a"))
        assert err.value.prefix_len == 3
        assert "length 3" in str(err.value)


class TestCheckAxioms:
    def test_full_domain_group_passes(self, s4p):
        report = check_axioms(s4p)
        assert report.ok
        assert report.violations == []

    def test_clean_table_passes_bounded_path(self):
        report = check_axioms(z4_table(), max_len=4)
        assert report.ok

    def test_corrupted_table_fails_with_witness(self):
        report = check_axioms(z4_table(corrupt=True), max_len=4)
        assert not report.ok
        assert any(v.word for v in report.violations)

    def test_max_len_below_two_rejected(self, s4p):
        with pytest.raises(InputError):
            check_axioms(s4p, max_len=1)

    def test_word_cap_comes_from_llab_caps(self, monkeypatch):
        # 4 + 16 + 64 = 84 words of length <= 3 over Z/4
        monkeypatch.setenv("LLAB_CAPS", "axiom_words=83")
        monkeypatch.setattr(caps, "_current", None)  # drop the cached parse
        with pytest.raises(CapExceeded) as exc:
            check_axioms(z4_table(), max_len=3)
        assert exc.value.limit == 83
        monkeypatch.setenv("LLAB_CAPS", "axiom_words=84")
        monkeypatch.setattr(caps, "_current", None)
        assert check_axioms(z4_table(), max_len=3).ok

    def test_table_check_is_capped_by_its_word_count(self, s4p):
        # the full-domain table check reports 24 + 24**2 + 24**3 = 14424
        # words on S4, and the same word cap refuses it below that count
        assert s4p.full_domain
        caps.override(caps.Caps(axiom_words=14423))
        try:
            with pytest.raises(CapExceeded, match="^axiom table check") as exc:
                check_axioms(s4p)
            assert exc.value.limit == 14423
        finally:
            caps.override(None)
        caps.override(caps.Caps(axiom_words=14424))
        try:
            assert check_axioms(s4p).checked_words == 14424
        finally:
            caps.override(None)


class TestGeneratedSubgroup:
    def test_identity_generates_trivial(self, s4p):
        sub = generated_subgroup(s4p, [s4p.identity])
        assert sub.members == frozenset({s4p.identity})

    def test_empty_set_generates_trivial(self, s4p):
        assert generated_subgroup(s4p, []).order == 1

    def test_matches_group_closure(self, s4, s4p):
        gens = [5, 9]
        sub = generated_subgroup(s4p, gens)
        assert sub.members == frozenset(mask_members(s4.close_mask(mask_of(gens))))

    def test_equals_intersection_of_closed_supersets(self):
        """Fixpoint output is the least closed subset on a small instance."""
        group = builtin("s3")
        pg = GroupPartial(group)
        els = pg.elements

        def closed(c):
            return all(pg.inv(x) in c for x in c) and all(
                pg.binary(x, y) in c for x in c for y in c
            )

        all_closed = [
            set(c) | {0}
            for r in range(len(els) + 1)
            for c in itertools.combinations(els, r)
            if closed(set(c) | {0})
        ]
        for seed in [set(), {1}, {2, 3}, {4}]:
            expected = set(els)
            for c in all_closed:
                if seed <= c:
                    expected &= c
            assert generated_subgroup(pg, seed).members == expected


class TestPartialNormal:
    def test_whole_carrier_is_normal(self, s4p):
        whole = PartialSubgroup(s4p, frozenset(s4p.elements))
        assert is_partial_normal(s4p, whole)

    def test_group_case_matches_normal_subgroups(self):
        group = builtin("d8")
        pg = GroupPartial(group)
        expected = {frozenset(h.members()) for h in normal_subgroups(group.top)}
        got = {sub.members for sub in all_partial_normal_subgroups(pg)}
        assert got == expected

    def test_non_normal_subgroup_detected(self, s4, s4p):
        two_cycle = s4.index_of((1, 0, 2, 3))
        sub = generated_subgroup(s4p, [two_cycle])
        assert not is_partial_normal(s4p, sub)

    def test_normal_closure_of_transposition_is_whole_s4(self, s4, s4p):
        two_cycle = s4.index_of((1, 0, 2, 3))
        assert normal_closure(s4p, [two_cycle]).order == 24

    def test_simple_group_has_two(self):
        pg = GroupPartial(builtin("a5"))
        subs = all_partial_normal_subgroups(pg)
        assert [s.order for s in subs] == [60, 1]

    def test_abelian_group_has_all_subgroups(self):
        pg = GroupPartial(builtin("c6"))
        subs = all_partial_normal_subgroups(pg)
        assert [s.order for s in subs] == [6, 3, 2, 1]

    def test_deterministic_order(self, s4p):
        subs = all_partial_normal_subgroups(s4p)
        assert [s.order for s in subs] == [24, 12, 4, 1]
        assert subs == sorted(subs, key=lambda m: (-len(m.members), s4p.member_mask(m.members)))


def overlapping_cosets_table():
    els = ("e", "n", "a", "c", "x")
    products = {(y, "e"): y for y in els}
    products.update({("e", y): y for y in els})
    products.update({("n", "n"): "e", ("n", "a"): "x", ("n", "c"): "x"})
    return TablePartial(els, "e", {y: y for y in els}, products)


def assert_coset_partition(pg, blocks, sub):
    """Blocks are disjoint, cover the carrier, hold |sub| elements each
    (a group carrier), and come sorted by least member."""
    assert all(isinstance(b, frozenset) and len(b) == sub.order for b in blocks)
    assert sum(len(b) for b in blocks) == len(pg.elements)
    assert frozenset().union(*blocks) == frozenset(pg.elements)
    least = [min(b, key=pg.index_of) for b in blocks]
    assert least == sorted(least, key=pg.index_of)
    assert least[0] == pg.identity and blocks[0] == sub.members


class TestCosetsAndQuotients:
    """Coset partitions only; quotients are built by
    `locality.quotient_locality` and tested with it."""

    def test_trivial_quotient_is_isomorphic_copy(self, s4p):
        triv = PartialSubgroup(s4p, frozenset({s4p.identity}))
        blocks = coset_partition(s4p, triv)
        assert blocks == tuple(frozenset({x}) for x in s4p.elements)

    def test_c6_mod_c3(self):
        group = builtin("c6")
        pg = GroupPartial(group)
        c3 = generated_subgroup(pg, [group.index_of((2, 3, 4, 5, 0, 1))])
        assert c3.order == 3
        blocks = coset_partition(pg, c3)
        assert len(blocks) == 2
        assert_coset_partition(pg, blocks, c3)

    def test_s4_mod_v4_has_order_six(self, s4, s4p):
        v4 = generated_subgroup(
            s4p, [s4.index_of((1, 0, 3, 2)), s4.index_of((2, 3, 0, 1))]
        )
        blocks = coset_partition(s4p, v4)
        assert len(blocks) == 6
        assert_coset_partition(s4p, blocks, v4)

    def test_non_normal_subgroup_rejected(self, s4, s4p):
        sub = generated_subgroup(s4p, [s4.index_of((1, 0, 2, 3))])
        with pytest.raises(InputError):
            coset_partition(s4p, sub)

    def test_overlapping_maximal_cosets_rejected(self):
        # negative control: N = {e, n} passes the normality test (no
        # conjugate of n by another letter is defined), but n*a = n*c = x
        # makes the maximal cosets {a, x} and {c, x} overlap
        pg = overlapping_cosets_table()
        sub = PartialSubgroup(pg, frozenset({"e", "n"}))
        assert is_partial_normal(pg, sub)
        with pytest.raises(PropertyViolation) as err:
            coset_partition(pg, sub)
        assert err.value.witness == "x"


class TestPGHom:
    def test_identity_hom(self, s4p):
        h = PGHom(s4p, s4p, {x: x for x in s4p.elements})
        assert h.verify()[0]
        assert reference_kernel(h).order == 1
        assert reference_is_projection(h)

    def test_non_surjective_map_is_not_projection(self):
        c6 = GroupPartial(builtin("c6"))
        const = PGHom(c6, c6, {x: 0 for x in c6.elements})
        assert const.verify()[0]
        assert not reference_is_projection(const)

    def test_bad_map_rejected_by_kernel(self, s4p):
        mapping = {x: x for x in s4p.elements}
        mapping[1], mapping[2] = mapping[2], mapping[1]
        h = PGHom(s4p, s4p, mapping)
        if not h.verify()[0]:
            with pytest.raises(InputError):
                reference_kernel(h)

    def test_word_sweeps_are_capped(self):
        # the s5/2 F^q locality has partial domain: 56 + 56**2 = 3192 words
        # of length <= 2
        G = builtin("s5")
        L = locality_from_group(G, 2, resolve_delta_spec(fusion_from_group(G, 2), "q"))
        assert not L.full_domain and len(L.elements) == 56
        h = PGHom(L, L, {x: x for x in L.elements})
        caps.override(caps.Caps(axiom_words=3191))
        try:
            with pytest.raises(CapExceeded) as exc:
                h.verify(max_len=2)
            assert exc.value.limit == 3191
        finally:
            caps.override(None)
        assert h.verify(max_len=2)[0]

    def test_group_pair_tests_are_not_capped(self):
        # 6 + 36 + 216 = 258 words of length <= 3 over C6, but between two
        # groups no word is swept: pairs decide verify
        c6 = GroupPartial(builtin("c6"))
        h = PGHom(c6, c6, {x: x for x in c6.elements})
        caps.override(caps.Caps(axiom_words=257))
        try:
            assert h.verify() == (True, None)
        finally:
            caps.override(None)

    def test_agl_1_8_under_default_caps(self):
        # order 168: 168 + 168**2 + 168**3 words pass the default cap of
        # 2 000 000, while the pair test forms 168**2
        agl = GroupPartial(group_from_generators(8, AGL_1_8))
        assert len(agl.elements) == 168
        h = PGHom(agl, agl, {x: x for x in agl.elements})
        assert h.verify() == (True, None)
        assert reference_kernel(h).order == 1

    def test_missing_element_rejected(self, s4p):
        with pytest.raises(InputError):
            PGHom(s4p, s4p, {0: 0})


# -- the conjugation sweep the conjugate rows replaced, kept as a reference ----


def reference_conjugates_outside(pg, members):
    """Yield every defined conjugate x**g of a member x that is not a member.

    The one conjugation sweep of the partial-normal layer: g runs over the
    carrier, x over the members.
    """
    for g in pg.elements:
        for x in members:
            z = conj(pg, x, g)
            if z is not None and z not in members:
                yield z


def reference_is_partial_normal(pg, sub):
    """True iff every defined conjugate of a member lands back in it and the
    members form a partial subgroup."""
    for _ in reference_conjugates_outside(pg, sub.members):
        return False
    return generated_subgroup(pg, sub.members).members == sub.members


def reference_normal_closure(pg, xs):
    """Least partial normal subgroup containing xs."""
    cur = generated_subgroup(pg, xs).members
    while True:
        extra = set(reference_conjugates_outside(pg, cur))
        if not extra:
            return PartialSubgroup(pg, frozenset(cur))
        cur = generated_subgroup(pg, cur | extra).members


def reference_enumerate_partial_normals(pg):
    """Join-lattice search over normal closures of single elements; capped."""
    cap = caps.current().partial_normal
    if len(pg.elements) > cap:
        raise CapExceeded("partial-normal enumeration", cap)
    atoms = {}
    for x in pg.elements:
        if x == pg.identity:
            continue
        atoms.setdefault(reference_normal_closure(pg, [x]).members, None)
    atom_sets = sorted(atoms, key=lambda m: (len(m), pg.member_mask(m)))

    # the least partial normal subgroup: {1} on a partial group, but a
    # broken carrier may conjugate 1 out of it
    bottom = reference_normal_closure(pg, []).members
    found, frontier = {bottom}, [bottom]
    while frontier:
        nxt = []
        for base in frontier:
            for a in atom_sets:
                if a <= base:
                    continue
                joined = reference_normal_closure(pg, base | a).members
                if joined not in found:
                    found.add(joined)
                    nxt.append(joined)
                    if len(found) > cap:
                        raise CapExceeded("partial-normal enumeration", cap)
        frontier = nxt
    return tuple(sorted(found, key=lambda m: (-len(m), pg.member_mask(m))))


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        got = f(*args)
    # a broken table raises on both sides: a word outside D, or a product
    # that escapes the carrier and has no inverse
    except (DomainError, InputError, KeyError) as exc:
        return type(exc), str(exc)
    return got.members if isinstance(got, PartialSubgroup) else got


def lattice(pg):
    return tuple(sub.members for sub in all_partial_normal_subgroups(pg))


def example_carriers(name, p):
    """Every carrier verify builds for one built-in pair: the base, each
    growth step, and each tower's quotient and grown quotient."""
    ctx = example(name, p)
    carriers = [ctx.base] + [step.locality for step in ctx.growth.steps]
    for _, (lq, lbarplus) in ctx.towers:
        carriers += [lq.locality, lbarplus]
    return ctx, list({id(L): L for L in carriers}.values())


TABLE_CARRIERS = {
    "z4": lambda: z4_table(),
    "z4-corrupt": lambda: z4_table(corrupt=True),
    "z4-escaping": lambda: axiom_z4_table(one_plus_one=4),
    "z4-self-inverse": lambda: axiom_z4_table(inverses={x: x for x in range(4)}),
    "c2-no-square": lambda: c2_table([]),
    "c2-prefix": lambda: c2_table([("a", "a", "e")]),
    "c2-suffix": lambda: c2_table([("e", "a", "a")]),
    "c2-contracted": lambda: c2_table([("a", "e", "a")]),
    "overlapping-cosets": overlapping_cosets_table,
}


# What the class table raises on a broken carrier.  Its pass meets every
# pair of D and every conjugate, so it refuses the carrier on every call;
# the reference refuses only the calls whose closure reaches the fault.
FAULT_ON_EVERY_CALL = {
    "z4-escaping": (InputError, "4 is not an element of this partial group"),
    "c2-contracted": (DomainError, "word of length 2 is not in the product "
                      "domain; first failing prefix has length 2"),
}


class TestAgainstTheConjugationSweep:
    """The class table answers as the per-call conjugation sweep did."""

    @pytest.mark.parametrize("name", sorted(TABLE_CARRIERS))
    def test_table_carriers(self, name):
        pg = TABLE_CARRIERS[name]()
        got = [outcome(lattice, pg)]
        want = [outcome(reference_enumerate_partial_normals, pg)]
        els = pg.elements
        for r in range(len(els) + 1):
            for xs in itertools.combinations(els, r):
                sub = PartialSubgroup(pg, frozenset(xs))
                got += [outcome(is_partial_normal, pg, sub),
                        outcome(normal_closure, pg, xs)]
                want += [outcome(reference_is_partial_normal, pg, sub),
                         outcome(reference_normal_closure, pg, xs)]
        if name in FAULT_ON_EVERY_CALL:
            assert set(got) == {FAULT_ON_EVERY_CALL[name]}
        else:
            assert got == want

    @pytest.mark.parametrize("name,p", BUILTIN_PAIRS)
    def test_every_example_carrier(self, name, p):
        ctx, carriers = example_carriers(name, p)
        for L in carriers:
            assert lattice(L) == reference_enumerate_partial_normals(L)
            for x in L.elements:
                assert (normal_closure(L, [x]).members
                        == reference_normal_closure(L, [x]).members)
            for N in all_partial_normal_subgroups(L):
                assert (o_pprime_of(L, N).members
                        == reference_relative_core(L, N, "p'").members)
                assert o_p_of(L, N).members == reference_relative_core(L, N, "p").members
        L = ctx.base
        for P in subgroups_below(L.S):
            sub = PartialSubgroup(L, frozenset(P.members()))
            assert is_partial_normal(L, sub) == reference_is_partial_normal(L, sub)


class TestConjugateRowsAreMemoized:
    """Each element of a carrier has its conjugates formed once."""

    def count_conj(self, monkeypatch):
        calls = Counter()
        conjugates = Locality.conjugates

        def counted(L, x):
            calls[L, x] += 1
            return conjugates(L, x)

        monkeypatch.setattr(Locality, "conjugates", counted)
        return calls

    def test_lattice_and_lifts_conjugate_each_pair_once(self, monkeypatch):
        ctx = ExampleContext(builtin("s5"), 2)
        L, Lp = ctx.base, ctx.growth.locality
        calls = self.count_conj(monkeypatch)
        normals = all_partial_normal_subgroups(L)
        for _ in range(2):  # every tower lifts the same subgroups again
            for N in normals:
                lift_normal(L, Lp, N)
        assert calls and max(calls.values()) == 1
        assert {carrier for carrier, _ in calls} <= {L, Lp}

    def test_repeated_normality_test_makes_no_conj_call(self, monkeypatch):
        L = ExampleContext(builtin("s5"), 2).base
        subs = [PartialSubgroup(L, frozenset(P.members())) for P in subgroups_below(L.S)]
        first = [is_partial_normal(L, sub) for sub in subs]
        calls = self.count_conj(monkeypatch)
        assert [is_partial_normal(L, sub) for sub in subs] == first
        assert not calls


class TestOnePassPerCarrier:
    """Every partial-normal question on a carrier reads one class table."""

    def test_each_pair_of_d_is_multiplied_once_per_carrier(self, monkeypatch):
        ctx = ExampleContext(builtin("s5"), 2)
        # fresh copies, so no table is built yet
        L, Lp = (Locality(K.group, K.elements, K.S, K.delta, K.p)
                 for K in (ctx.base, ctx.growth.locality))
        pairs, sweeps = Counter(), Counter()
        binary, sweep = Locality.binary, partial.generated_subgroup

        def counted_binary(pg, x, y):
            pairs[pg, x, y] += 1
            return binary(pg, x, y)

        def counted_sweep(pg, xs):
            sweeps[pg] += 1
            return sweep(pg, xs)

        monkeypatch.setattr(Locality, "binary", counted_binary)
        monkeypatch.setattr(partial, "generated_subgroup", counted_sweep)
        verdicts = []
        for N in all_partial_normal_subgroups(L):
            lift_normal(L, Lp, N)
        for K in (L, Lp):
            subs = [PartialSubgroup(K, frozenset(P.members()))
                    for P in subgroups_below(K.S)]
            subs += all_partial_normal_subgroups(K)
            subs += [normal_closure(K, [x]) for x in K.elements]
            verdicts += [is_partial_normal(K, sub) for sub in subs]
        monkeypatch.undo()
        assert verdicts.count(True) and verdicts.count(False)
        # one pass over D per carrier, and nothing multiplied after it: each
        # pair at most once, with an N_L(S)-orbit representative on the left
        assert max(pairs.values()) == 1
        assert set(pairs) <= {(K, x, y) for K in (L, Lp) for x in orbit_representatives(K)
                              for y in K.domain_row(x)}
        assert {K for K, _, _ in pairs} == {L, Lp}
        assert not sweeps


    def test_table_walks_no_word_and_conjugates_each_defined_pair_once(
            self, monkeypatch):
        base = frontier_growth("s6", 2).base
        # a fresh copy, so no class table is built yet
        L = Locality(base.group, base.elements, base.S, base.delta, base.p)
        steps, conjs = Counter(), Counter()
        walk_step, conj = Locality.walk_step, FiniteGroup.conj

        def counted_step(pg, state, g):
            steps[g] += 1
            return walk_step(pg, state, g)

        def counted_conj(G, x, g):
            conjs[x, g] += 1
            return conj(G, x, g)

        monkeypatch.setattr(Locality, "walk_step", counted_step)
        monkeypatch.setattr(FiniteGroup, "conj", counted_conj)
        partial._class_table(L)
        monkeypatch.undo()
        assert not L.full_domain and not steps and conjs
        # (x, g) is defined when the walker puts (g**-1, x, g) in D; each is
        # conjugated at most once, with x an N_L(S)-orbit representative
        assert max(conjs.values()) == 1
        reps = orbit_representatives(L)
        assert len(reps) < len(L.elements)
        assert all(x in reps and L.in_domain((L.inv(g), x, g)) for x, g in conjs)

    def test_table_tests_each_s_g_block_once_per_element(self, monkeypatch):
        # the s6/2 base has 80 elements and 3 distinct S_g: the table asks
        # whether (g**-1, x, g) is in D at most once per (x, S_g), not per
        # (x, g), and only for an N_L(S)-orbit representative x
        base = frontier_growth("s6", 2).base
        L = Locality(base.group, base.elements, base.S, base.delta, base.p)
        tests, step = Counter(), Locality._step_mask

        def counted_step(pg, g, cur):
            tests[g, cur] += 1
            return step(pg, g, cur)

        monkeypatch.setattr(Locality, "_step_mask", counted_step)
        partial._class_table(L)
        monkeypatch.undo()
        assert len(L.elements) == 80 and len(L._blocks) == 3
        assert tests and max(tests.values()) == 1
        assert {x for x, _ in tests} <= orbit_representatives(L)
        assert {cur for _, cur in tests} <= set(L._blocks)


class TestPartialVerdictsAreMemoized:
    """`is_partial_normal` reads the carrier's kept class table, so no
    member set's pairs are swept, once or again."""

    def count_sweeps(self, monkeypatch):
        calls = Counter()
        sweep = partial.generated_subgroup

        def counted(pg, xs):
            xs = frozenset(xs)
            calls[pg, xs] += 1
            return sweep(pg, xs)

        monkeypatch.setattr(partial, "generated_subgroup", counted)
        return calls

    def test_each_member_set_is_swept_at_most_once(self, monkeypatch):
        L = ExampleContext(builtin("s5"), 2).base
        e = frozenset({L.identity})
        of = partial._class_table(L).of
        classes = {frozenset(x for x, c in zip(L.elements, of) if c == a)
                   for a in set(of)}
        sets = ([frozenset(P.members()) for P in subgroups_below(L.S)]
                + list(classes) + [cls | e for cls in classes])
        calls = self.count_sweeps(monkeypatch)
        first = [is_partial_normal(L, PartialSubgroup(L, m)) for m in sets]
        assert [is_partial_normal(L, PartialSubgroup(L, m)) for m in sets] == first
        assert first.count(True) and first.count(False)
        assert not calls

    def test_a_normal_closure_is_not_swept_again(self, monkeypatch):
        L = ExampleContext(builtin("s5"), 2).base
        closures = [normal_closure(L, [x]) for x in L.elements]
        closures += all_partial_normal_subgroups(L)
        calls = self.count_sweeps(monkeypatch)
        assert all(is_partial_normal(L, N) for N in closures)
        assert not calls


class TestOnePairKernel:
    """Every pair sweep reads the carrier's domain rows, and the normal
    closure is one semi-naive closure."""

    def count(self, monkeypatch):
        """Count generated_subgroup calls by caller and in_domain calls by
        word length."""
        sweeps, walks = Counter(), Counter()
        sweep, in_domain = partial.generated_subgroup, Locality.in_domain

        def counted_sweep(pg, xs):
            sweeps[sys._getframe(1).f_code.co_name] += 1
            return sweep(pg, xs)

        def counted_walk(self, word):
            walks[len(tuple(word))] += 1
            return in_domain(self, word)

        monkeypatch.setattr(partial, "generated_subgroup", counted_sweep)
        monkeypatch.setattr(Locality, "in_domain", counted_walk)
        return sweeps, walks

    def test_lattice_and_lifts_walk_no_pair(self, monkeypatch):
        ctx = ExampleContext(builtin("s5"), 2)
        # fresh copies, so no row, closure or lattice is cached yet
        L, Lp = (Locality(K.group, K.elements, K.S, K.delta, K.p)
                 for K in (ctx.base, ctx.growth.locality))
        sweeps, walks = self.count(monkeypatch)
        normals = all_partial_normal_subgroups(L)
        for N in normals:
            lift_normal(L, Lp, N)
        monkeypatch.undo()
        assert len(normals) == 4
        assert not sweeps and not walks[2]

    def test_partial_domain_lattice_walks_no_pair(self, monkeypatch):
        G = builtin("s5")
        F = fusion_from_group(G, 2)
        L = locality_from_group(G, 2, resolve_delta_spec(F, "q"))
        assert not L.full_domain
        sweeps, walks = self.count(monkeypatch)
        normals = all_partial_normal_subgroups(L)
        monkeypatch.undo()
        assert len(normals) > 2
        assert not sweeps and not walks[2]

    def test_closure_checks_every_element_it_forms(self):
        # 1 * 1 = 4 leaves Z/4: the closure names it as it names a bad input
        pg = axiom_z4_table(one_plus_one=4)
        for f in (generated_subgroup, normal_closure):
            with pytest.raises(InputError, match="^4 is not an element"):
                f(pg, [1])
