"""Partial group substrate: axioms, closures, normality, cosets, homs."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab import caps
from llab.errors import CapExceeded, DomainError, InputError, PropertyViolation
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
from llab.permgroup import FiniteGroup, group_from_generators, normal_subgroups
from table_partial import GroupPartial, TablePartial

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"


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


class TestGeneratedSubgroup:
    def test_identity_generates_trivial(self, s4p):
        sub = generated_subgroup(s4p, [s4p.identity])
        assert sub.members == frozenset({s4p.identity})

    def test_empty_set_generates_trivial(self, s4p):
        assert generated_subgroup(s4p, []).order == 1

    def test_matches_group_closure(self, s4, s4p):
        gens = [5, 9]
        sub = generated_subgroup(s4p, gens)
        assert sub.members == frozenset(s4.subgroup_of(gens).members())

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
        assert subs == sorted(subs, key=PartialSubgroup.key)


def assert_coset_partition(pg, blocks, sub):
    """Blocks are disjoint, cover the carrier, hold |sub| elements each
    (a group carrier), and come sorted by least member."""
    assert all(isinstance(b, frozenset) and len(b) == sub.order for b in blocks)
    assert sum(len(b) for b in blocks) == len(pg.elements)
    assert frozenset().union(*blocks) == frozenset(pg.elements)
    least = [min(b, key=pg.sort_key) for b in blocks]
    assert least == sorted(least, key=pg.sort_key)
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
        els = ("e", "n", "a", "c", "x")
        products = {(y, "e"): y for y in els}
        products.update({("e", y): y for y in els})
        products.update({("n", "n"): "e", ("n", "a"): "x", ("n", "c"): "x"})
        pg = TablePartial(els, "e", {y: y for y in els}, products)
        sub = PartialSubgroup(pg, frozenset({"e", "n"}))
        assert is_partial_normal(pg, sub)
        with pytest.raises(PropertyViolation) as err:
            coset_partition(pg, sub)
        assert err.value.witness == "x"


class TestPGHom:
    def test_identity_hom(self, s4p):
        h = PGHom(s4p, s4p, {x: x for x in s4p.elements})
        assert h.verify()[0]
        assert h.kernel().order == 1
        assert h.is_projection()

    def test_non_surjective_map_is_not_projection(self):
        c6 = GroupPartial(builtin("c6"))
        const = PGHom(c6, c6, {x: 0 for x in c6.elements})
        assert const.verify()[0]
        assert not const.is_projection()

    def test_bad_map_rejected_by_kernel(self, s4p):
        mapping = {x: x for x in s4p.elements}
        mapping[1], mapping[2] = mapping[2], mapping[1]
        h = PGHom(s4p, s4p, mapping)
        if not h.verify()[0]:
            with pytest.raises(InputError):
                h.kernel()

    def test_word_sweeps_are_capped(self):
        # 6 + 36 + 216 = 258 words of length <= 3 over C6
        c6 = GroupPartial(builtin("c6"))
        h = PGHom(c6, c6, {x: x for x in c6.elements})
        caps.override(caps.Caps(axiom_words=257))
        try:
            with pytest.raises(CapExceeded) as exc:
                h.verify()
            assert exc.value.limit == 257
        finally:
            caps.override(None)
        assert h.verify()[0]
        # verified now, so only the projection sweep itself can refuse
        caps.override(caps.Caps(axiom_words=257))
        try:
            with pytest.raises(CapExceeded):
                h.is_projection()
        finally:
            caps.override(None)
        assert h.is_projection()

    def test_missing_element_rejected(self, s4p):
        with pytest.raises(InputError):
            PGHom(s4p, s4p, {0: 0})
