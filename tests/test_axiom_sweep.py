"""The row-kernel axiom sweep against the word-by-word sweep it replaced."""

import inspect
import itertools
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab import partial
from llab.errors import CapExceeded, DomainError
from llab.locality import Locality, locality_from_group, object_set
from llab.partial import (
    MAX_VIOLATIONS,
    AxiomReport,
    AxiomViolation,
    _cap_words,
    _check_axioms_bounded,
    _check_axioms_table,
    _orbit_reps,
    check_axioms,
)
from llab.permgroup import FiniteGroup, mask_members, sylow_p
from table_partial import GroupPartial, TablePartial, UncheckedLocality
from test_derived_facts import check_walker_rows, orbit_representatives
from test_expansion import frontier_growth
from test_locality import builtin, delta_of, not_f_closed_locality


def reference_check_axioms_bounded(pg, max_len):
    """The bounded axiom sweep as it was before the word walker.

    Every word of length <= max_len is decided by its own `in_domain` call,
    and w**-1 * w by `in_domain` and `product` on the whole word.
    """
    els = pg.elements
    _cap_words(len(els), max_len, "axiom word enumeration")
    bad = []

    def record(axiom, word, detail):
        if len(bad) < 200:
            bad.append(AxiomViolation(axiom, word, detail))

    if not pg.in_domain(()):
        record("1", (), "empty word not in domain")

    prod = {(): pg.identity}
    checked = 0
    for k in range(1, max_len + 1):
        for word in itertools.product(els, repeat=k):
            checked += 1
            here = pg.in_domain(word)
            if k == 1:
                if not here:
                    record("1", word, "length-1 word not in domain")
                else:
                    prod[word] = word[0]
                continue
            pre, suf = word[:-1], word[1:]
            if here and not pg.in_domain(pre):
                record("1", word, "prefix missing from domain")
            if here and not pg.in_domain(suf):
                record("1", word, "suffix missing from domain")
            if here and pre in prod:
                step = (prod[pre], word[-1])
                if not pg.in_domain(step):
                    record("3", word, "contracted prefix pair leaves domain")
                else:
                    try:
                        prod[word] = pg.binary(*step)
                    except Exception as exc:
                        record("3", word, f"binary product failed: {exc}")

    for word in prod:
        if not word:
            continue
        value = prod[word]
        if value not in pg._index:
            record("1", word, "product escapes the carrier")
            continue
        k = len(word)
        for i in range(k):
            for j in range(i + 2, k + 1):
                seg = word[i:j]
                if seg not in prod:
                    continue
                contracted = word[:i] + (prod[seg],) + word[j:]
                if not pg.in_domain(contracted):
                    record("3", word, f"contraction of [{i}:{j}] leaves domain")
                elif len(contracted) <= max_len:
                    if contracted in prod and prod[contracted] != value:
                        record("3", word, f"contraction of [{i}:{j}] changes product")
        try:
            wi = tuple(pg.inv(x) for x in reversed(word))
        except Exception as exc:
            record("4", word, f"inversion failed: {exc}")
            continue
        cat = wi + word
        if not pg.in_domain(cat):
            record("4", word, "w**-1 * w not in domain")
        else:
            try:
                if pg.product(cat) != pg.identity:
                    record("4", word, "w**-1 * w is not the identity")
            except DomainError:
                record("4", word, "w**-1 * w fold left the domain")
        if wi in prod:
            try:
                if prod[wi] != pg.inv(value):
                    record("4", word, "product of inverse word is not the inverse")
            except Exception as exc:
                record("4", word, f"inversion failed: {exc}")

    for x in els:
        try:
            if pg.inv(pg.inv(x)) != x:
                record("4", (x,), "inversion is not involutory")
        except Exception as exc:
            record("4", (x,), f"inversion failed: {exc}")

    return AxiomReport(ok=not bad, checked_words=checked, violations=bad)


def reference_check_axioms_table(pg):
    """The full-domain axiom check as it was before index rows: one dict of
    products keyed by element pairs, and each (x, y, z) decided alone."""
    els = pg.elements
    n = len(els)
    bad = []
    e = pg.identity
    if e not in pg._index:
        bad.append(AxiomViolation("2", (), "identity is not an element"))
    table = {}
    for x in els:
        for y in els:
            if not pg.in_domain((x, y)):
                bad.append(AxiomViolation("1", (x, y), "pair missing from full domain"))
                continue
            z = pg.binary(x, y)
            if z not in pg._index:
                bad.append(AxiomViolation("1", (x, y), "product escapes the carrier"))
            table[(x, y)] = z
    for x in els:
        if table.get((e, x)) != x or table.get((x, e)) != x:
            bad.append(AxiomViolation("2", (x,), "identity law fails"))
        try:
            xi = pg.inv(x)
            involutory = pg.inv(xi) == x
        except Exception as exc:
            bad.append(AxiomViolation("4", (x,), f"inversion failed: {exc}"))
            continue
        if not involutory:
            bad.append(AxiomViolation("4", (x,), "inversion is not involutory"))
        if table.get((xi, x)) != e or table.get((x, xi)) != e:
            bad.append(AxiomViolation("4", (xi, x), "inverse law fails"))
    for x in els:
        for y in els:
            xy = table.get((x, y))
            for z in els:
                if table.get((xy, z)) != table.get((x, table.get((y, z)))):
                    bad.append(AxiomViolation("3", (x, y, z), "associativity fails"))
    return AxiomReport(ok=not bad, checked_words=n + n * n + n**3, violations=bad)


def q_locality(name):
    G = builtin(name)
    return locality_from_group(G, 2, delta_of(G, 2, "q"))


def assert_same_report(pg, max_len):
    got = _check_axioms_bounded(pg, max_len)
    want = reference_check_axioms_bounded(pg, max_len)
    assert (got.ok, got.checked_words) == (want.ok, want.checked_words)
    assert got.violations == want.violations
    return got


class TestAgainstTheWordSweep:
    @pytest.mark.parametrize("max_len", [2, 3])
    def test_s5_partial_domain(self, max_len):
        L = q_locality("s5")
        assert not L.full_domain
        got = assert_same_report(L, max_len)
        assert got.ok
        assert got.checked_words == sum(56**k for k in range(1, max_len + 1))

    # both carriers have full domain, so check_axioms takes the table path;
    # the bounded sweep is called directly
    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_full_domain_carriers(self, name):
        L = q_locality(name)
        assert L.full_domain
        assert assert_same_report(L, 3).ok


class TestNotFClosed:
    """An unchecked carrier whose object set is not F-closed: `Locality`
    refuses it, and the sweeps, which decide D by the image of S_w, agree
    that it breaks the axioms."""

    def test_unchecked_cut_carrier(self):
        # the carrier is the cut {g : S_g in Delta}; 8 of its members lose
        # their inverses
        L = not_f_closed_locality()
        assert sum(L.inv(g) not in L._index for g in L.elements) == 8
        assert not assert_same_report(L, 2).ok


def c2_table(domain):
    """C2 = {e, a} without the product a*a, with an explicit domain.

    Pairs are in D only when listed; a longer word is in D when listed or
    when it folds through defined pairs.
    """
    products = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"}
    return TablePartial(("e", "a"), "e", {"e": "e", "a": "a"}, products,
                        domain=list(products) + list(domain))


def z4_table(inverses=None, one_plus_one=2):
    els = (0, 1, 2, 3)
    products = {(x, y): (x + y) % 4 for x in els for y in els}
    products[(1, 1)] = one_plus_one
    return TablePartial(els, 0, inverses or {0: 0, 1: 3, 2: 2, 3: 1}, products)


class TestNegativeControls:
    """Each carrier breaks one axiom; both sweeps report the same violations."""

    @pytest.mark.parametrize("pg,max_len,detail", [
        (c2_table([("a", "a", "e")]), 3, "prefix missing from domain"),
        (c2_table([("e", "a", "a")]), 3, "suffix missing from domain"),
        (c2_table([("a", "e", "a")]), 3, "contracted prefix pair leaves domain"),
        (z4_table(inverses={0: 0, 1: 1, 2: 2, 3: 3}), 3,
         "w**-1 * w is not the identity"),
        (z4_table(one_plus_one=3), 4, "contraction of [1:3] changes product"),
        # 1 * 1 = 4 is no element: words through it were never walked
        (z4_table(one_plus_one=4), 3, "contraction of [1:3] leaves domain"),
    ], ids=["prefix", "suffix", "contracted-pair", "inverse-word", "corrupted-z4",
            "escaping-product"])
    def test_violation_fires_in_both_sweeps(self, pg, max_len, detail):
        got = assert_same_report(pg, max_len)
        assert not got.ok
        assert detail in {v.detail for v in got.violations}


def z4_with(pair, value):
    """Z/4 with the product of one pair replaced."""
    els = (0, 1, 2, 3)
    products = {(x, y): (x + y) % 4 for x in els for y in els}
    products[pair] = value
    return TablePartial(els, 0, {0: 0, 1: 3, 2: 2, 3: 1}, products)


def outcome(sweep, pg, max_len):
    """A sweep's report as comparable data, or the error it raised."""
    try:
        rep = sweep(pg, max_len)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return rep.ok, rep.checked_words, rep.violations


class TestMoreNegativeControls:
    """Branches of the sweep the controls above do not reach."""

    @pytest.mark.parametrize("pg,max_len,detail", [
        # (a, a) is listed in D, but the table has no product for it
        (c2_table([("a", "a")]), 2, "binary product failed"),
        # 2 * 1 = 4 is no element, so (1, 1, 1) folds out of the carrier and
        # contracting it inside (3, 1, 1, 1) leaves D
        (z4_with((2, 1), 4), 4, "contraction of [1:4] leaves domain"),
        (z4_table(one_plus_one=3), 2, "product of inverse word is not the inverse"),
    ], ids=["binary-raises", "escaped-triple", "inverse-word"])
    def test_violation_fires_in_both_sweeps(self, pg, max_len, detail):
        got = assert_same_report(pg, max_len)
        assert not got.ok
        assert any(v.detail.startswith(detail) for v in got.violations)

    def test_raising_inverse_fails_both_sweeps_alike(self):
        # inv(3) raises: the words through 3, and the words whose product is
        # 3, are recorded as "inversion failed", and so is 3 in the closing
        # involution check (and 1, whose inverse is 3); nothing is raised
        els = (0, 1, 2, 3)
        products = {(x, y): (x + y) % 4 for x in els for y in els}
        pg = TablePartial(els, 0, {0: 0, 1: 3, 2: 2}, products)
        got = assert_same_report(pg, 3)
        assert not got.ok
        failed = [v for v in got.violations if v.detail == "inversion failed: 3"]
        assert {v.word for v in failed if len(v.word) == 1} == {(1,), (3,)}
        assert any(3 not in v.word for v in failed)

    def test_raising_inverse_fails_the_table_check(self):
        # the same table on the full-domain path: inv(3) raises, and the
        # report records it instead of raising
        els = (0, 1, 2, 3)
        products = {(x, y): (x + y) % 4 for x in els for y in els}
        pg = TablePartial(els, 0, {0: 0, 1: 3, 2: 2}, products)
        pg.full_domain = True
        rep = check_axioms(pg, 3)
        assert not rep.ok
        assert [v for v in rep.violations if v.axiom == "4"] == [
            AxiomViolation("4", (1,), "inversion failed: 3"),
            AxiomViolation("4", (3,), "inversion failed: 3"),
        ]

    def test_record_cap_keeps_the_first_200_in_order(self):
        # 318 violations in all; the cap falls among the words of length 4
        got = assert_same_report(z4_table(one_plus_one=3), 4)
        assert len(got.violations) == 200
        assert len(got.violations[-1].word) == 4


class Punctured(TablePartial):
    """Z/4 with the listed words taken out of D and the given products
    changed (None drops a product, so `binary` raises on that pair)."""

    def __init__(self, excluded=(), inverses=None, products=None, domain=None):
        els = (0, 1, 2, 3)
        table = {(x, y): (x + y) % 4 for x in els for y in els}
        table.update(products or {})
        table = {k: v for k, v in table.items() if v is not None}
        super().__init__(els, 0, inverses or {0: 0, 1: 3, 2: 2, 3: 1}, table,
                         domain=domain)
        self._excluded = {tuple(w) for w in excluded}

    def in_domain(self, word) -> bool:
        return tuple(word) not in self._excluded and super().in_domain(word)


ALL_PAIRS = [(x, y) for x in range(4) for y in range(4)]


class TestBulkRowTests:
    """One fault per bulk row test of the second pass, at length 3.

    Each row flags its letters with list lookups and only flagged letters
    are decided word by word, so a bulk test that missed a failing letter
    would drop its violation from the report.  A pair product is shared by
    every word that folds through it, so only the w**-1 * w faults (one word
    taken out of D) reach a single word.
    """

    @pytest.mark.parametrize("pg,detail,words", [
        # (1, 2) leaves D but keeps its product: (1, 1, 1) and (1, 3, 3)
        # contract into it
        (Punctured(domain=[p for p in ALL_PAIRS if p != (1, 2)]),
         "contraction of [1:3] leaves domain", {(1, 1, 1), (1, 3, 3)}),
        (z4_table(one_plus_one=3), "contraction of [1:3] changes product",
         {(1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 3, 2), (2, 1, 1), (2, 3, 1),
          (3, 1, 1), (3, 2, 1)}),
        # the one 6-letter word (1, 2, 3, 1, 2, 3) leaves D
        (Punctured(excluded=[(1, 2, 3, 1, 2, 3)]), "w**-1 * w not in domain",
         {(1, 2, 3)}),
        # (1, 1, 2) leaves D: only the fold of w**-1 * w for w = (2, 3, 3)
        # passes through it
        (Punctured(excluded=[(1, 1, 2)]), "w**-1 * w fold left the domain",
         {(2, 3, 3)}),
        (Punctured(products={(3, 3): 0}), "product of inverse word is not the inverse",
         None),
        # inv(2) leaves the carrier: every word through 2, or whose product
        # is 2, has a w**-1 outside the carrier
        (Punctured(inverses={0: 0, 1: 3, 2: 5, 3: 1}), "w**-1 * w not in domain", None),
        (Punctured(inverses={0: 0, 1: 3, 3: 1}), "inversion failed: 2", None),
    ], ids=["tail-leaves", "tail-changes", "walk-not-in-domain", "walk-fold",
            "inverse-word", "inverse-outside", "inverse-raises"])
    def test_fault_is_found_where_the_word_sweep_finds_it(self, pg, detail, words):
        got = assert_same_report(pg, 3)
        found = {v.word for v in got.violations if v.detail == detail and len(v.word) == 3}
        assert found
        if words is not None:
            assert found == words
            if len(words) == 1:
                assert len(got.violations) == 1

    def test_over_flagged_letters_are_passed_by_the_recorder(self):
        # (1, 2) is in D but binary raises on it: (1, 1, 1) and (1, 3, 3)
        # contract into it, so the [1:3] test sees no product there and
        # flags them, and the word-by-word check, which finds no product to
        # compare, records nothing for them
        pg = Punctured(products={(1, 2): None}, domain=ALL_PAIRS)
        got = assert_same_report(pg, 3)
        assert [v.word for v in got.violations if v.detail.startswith("binary")] == [
            (1, 2)]
        assert not {(1, 1, 1), (1, 3, 3)} & {v.word for v in got.violations}


def count_walker(monkeypatch):
    """Counters of what the sweep asks a `Locality`'s walker for: by state,
    its rows with successors and its mask-only rows, and by (state, letter)
    its single steps."""
    rows, masks, steps = Counter(), Counter(), Counter()
    walk_row, walk_step = Locality.walk_row, Locality.walk_step

    def counted_row(self, state, successors=True):
        (rows if successors else masks)[state] += 1
        return walk_row(self, state, successors)

    def counted_step(self, state, g):
        steps[state, g] += 1
        return walk_step(self, state, g)

    monkeypatch.setattr(Locality, "walk_row", counted_row)
    monkeypatch.setattr(Locality, "walk_step", counted_step)
    return rows, masks, steps


class TestNotFClosedThreeLetters:
    def test_states_repeat_and_rows_are_shared(self, monkeypatch):
        L = not_f_closed_locality()
        rows, masks, steps = count_walker(monkeypatch)
        got = _check_axioms_bounded(L, 3)
        monkeypatch.undo()
        n = len(L.elements)
        # each interned state gets at most one row and one mask, and no
        # letter is stepped alone
        assert max(rows.values()) == 1 and max(masks.values()) == 1
        assert not steps
        # the 1 + n + n**2 prefixes of length < 3 share a few states
        assert len(rows) * 8 < 1 + n + n * n
        want = reference_check_axioms_bounded(L, 3)
        assert (got.ok, got.checked_words) == (want.ok, want.checked_words)
        assert got.violations == want.violations
        assert not got.ok

    def test_second_pass_matches_the_reference_at_two_letters(self):
        # at length 3 the 200-record cap fills with first-pass records;
        # at length 2 the second pass records the products that escape
        L = not_f_closed_locality()
        got = _check_axioms_bounded(L, 2)
        want = reference_check_axioms_bounded(L, 2)
        assert (got.ok, got.checked_words) == (want.ok, want.checked_words)
        assert got.violations == want.violations
        assert Counter((len(v.word), v.detail) for v in got.violations) == {
            (1, "length-1 word not in domain"): 8,
            (2, "prefix missing from domain"): 32,
            (2, "product escapes the carrier"): 32,
        }


class WrongEnd(UncheckedLocality):
    """The s5/2 F^q locality with a wrong product at one walker state.

    w**-1 * w ends at the start state (S, 1) exactly when w is a word over
    S, and there the walker reads a product other than 1.  `product`, which
    the word-by-word sweep folds, reads the same walker, so both sweeps see
    the one fault.  The states are the locality's, so they collapse: many
    words share one.  `broken`, a pair of D, gets no product: `binary`
    raises on it.
    """

    def __init__(self, L, broken=None):
        super().__init__(L.group, L.elements, L.S, L.delta, 2)
        self._broken = broken

    def walk_product(self, state):
        if state == self.walk_start():
            return next(g for g in self.S.members() if g != self.identity)
        return super().walk_product(state)

    def product(self, word):
        super().product(word)  # DomainError off D
        return self.walk_product(self.walk(word))

    def binary(self, x, y):
        if (x, y) == self._broken:
            raise DomainError((x, y), 2)
        return super().binary(x, y)


def sandwich_groups(pg, tail, x):
    """The d0 for the words (d0,) + tail + (x,), grouped by the walker state
    after (x**-1,) + tail**-1 + (d0**-1, d0); a d0 whose state after d0**-1
    lies outside D is in no group."""
    t = pg.walk((pg.inv(x),) + tuple(pg.inv(y) for y in reversed(tail)))
    groups = {}
    for d0 in pg.elements:
        a = pg.walk_step(t, pg.inv(d0))
        if pg.walk_in_domain(a):
            groups.setdefault(pg.walk_step(a, d0), []).append(d0)
    return list(groups.values())


class TestSandwichGroups:
    """Negative controls for deciding w**-1 * w once per group of states."""

    def test_collapsed_states_fail_w_inverse_w_on_live_words(self):
        pg = WrongEnd(q_locality("s5"))
        got = assert_same_report(pg, 3)
        failed = [v.word for v in got.violations
                  if v.detail == "w**-1 * w is not the identity"]
        # every word over S fails, each letter with its inverse in the
        # carrier: 8 and 64 of lengths 1 and 2, then length 3 up to the cap
        assert len(failed) == len(got.violations) == MAX_VIOLATIONS
        assert Counter(len(w) for w in failed) == {1: 8, 2: 64, 3: 128}
        S = set(pg.S.members())
        assert all(set(w) <= S for w in failed)
        assert all(pg.inv(g) in pg._index for w in failed for g in w)

    def test_group_mixing_live_and_non_live_letters(self):
        L = q_locality("s5")
        e, a, b = L.S.members()[:3]
        x = b
        pg = WrongEnd(L, broken=(a, b))
        # for the tail (b,) and the last letter x, every d0 in S reaches one
        # state u; (a, b, x) is in D but has no product, so of that group
        # only the other letters are live
        group = next(g for g in sandwich_groups(pg, (b,), x) if a in g)
        assert set(pg.S.members()) <= set(group)
        assert pg.in_domain((a, b, x)) and pg.in_domain((e, b, x))
        got = assert_same_report(pg, 3)
        failed = {v.word for v in got.violations
                  if v.detail == "w**-1 * w is not the identity"}
        assert (e, b, x) in failed
        assert (a, b, x) not in failed
        assert any(v.word == (a, b) and v.detail.startswith("binary product failed")
                   for v in got.violations)


@st.composite
def corrupted_tables(draw):
    """Z/4 or the partial C2 above with one product, one domain entry or one
    inverse changed; values may leave the carrier."""
    if draw(st.booleans()):
        els, outside = (0, 1, 2, 3), 4
        products = {(x, y): (x + y) % 4 for x in els for y in els}
        inverses = {0: 0, 1: 3, 2: 2, 3: 1}
        domain = None
    else:
        els, outside = ("e", "a"), "b"
        products = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"}
        inverses = {"e": "e", "a": "a"}
        domain = list(products)
    kind = draw(st.sampled_from(["product", "domain", "inverse"]))
    values = st.sampled_from(els + (outside,))
    if kind == "product":
        products[draw(st.sampled_from(sorted(products)))] = draw(values)
    elif kind == "domain":
        domain = list(products) if domain is None else domain
        word = tuple(draw(st.lists(st.sampled_from(els), min_size=2, max_size=3)))
        if word in domain:
            domain.remove(word)
        else:
            domain.append(word)
    else:
        inverses[draw(st.sampled_from(els))] = draw(values)
    pg = TablePartial(els, els[0], inverses, products, domain=domain)
    return pg, draw(st.sampled_from([2, 3, 4]))


class TestCorruptedTables:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(corrupted_tables())
    def test_kernel_matches_the_word_sweep(self, case):
        pg, max_len = case
        assert (outcome(_check_axioms_bounded, pg, max_len)
                == outcome(reference_check_axioms_bounded, pg, max_len))


class TestTablePath:
    """The full-domain check on index rows against the dict-keyed one."""

    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_groups(self, name):
        pg = GroupPartial(builtin(name))
        got = _check_axioms_table(pg)
        assert got == reference_check_axioms_table(pg)
        assert got.ok

    def test_products_outside_the_carrier(self):
        # (1, 1) and (1, 3) escape to one value, (3, 2) to another and
        # (3, 3) to None
        els = (0, 1, 2, 3)
        products = {(x, y): (x + y) % 4 for x in els for y in els}
        products.update({(1, 1): "x", (1, 3): "x", (3, 2): "y", (3, 3): None})
        pg = TablePartial(els, 0, {0: 0, 1: 3, 2: 2, 3: 1}, products)
        pg.full_domain = True
        got = _check_axioms_table(pg)
        assert got == reference_check_axioms_table(pg)
        assert {v.detail for v in got.violations} >= {
            "product escapes the carrier", "associativity fails", "inverse law fails"}

    def test_identity_outside_the_carrier(self):
        els = (0, 1, 2, 3)
        products = {(x, y): (x + y) % 4 for x in els for y in els}
        pg = TablePartial(els, 7, {0: 0, 1: 3, 2: 2, 3: 1}, products)
        pg.full_domain = True
        got = _check_axioms_table(pg)
        assert got == reference_check_axioms_table(pg)
        assert got.violations[0].detail == "identity is not an element"

    def test_records_stop_at_the_cap(self):
        # one changed product in A5's table breaks associativity in 234
        # triples; the table path keeps the first 200, as the sweep does
        class Altered(GroupPartial):
            def binary(self, x, y):
                return 0 if (x, y) == (3, 5) else self.group.mult(x, y)

        pg = Altered(builtin("a5"))
        want = reference_check_axioms_table(pg)
        assert len(want.violations) == 234
        got = _check_axioms_table(pg)
        assert MAX_VIOLATIONS == 200
        assert (got.ok, got.checked_words) == (want.ok, want.checked_words)
        assert got.violations == want.violations[:200]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(corrupted_tables())
    def test_corrupted_tables(self, case):
        pg, _ = case
        pg.full_domain = True

        def table_check(pg, _max_len):
            return _check_axioms_table(pg)

        def reference(pg, _max_len):
            return reference_check_axioms_table(pg)

        assert outcome(table_check, pg, 0) == outcome(reference, pg, 0)


class TestSweepWork:
    def test_each_state_steps_each_letter_once(self, monkeypatch):
        # the word-by-word walk made 345 512 steps on this carrier, and the
        # sweep that stepped a (state, letter) pair at a time 8 064, 56 for
        # each of 144 states; a row steps a state by every letter at once
        L = q_locality("s5")
        rows, masks, steps = count_walker(monkeypatch)
        rep = _check_axioms_bounded(L, 3)
        monkeypatch.undo()
        assert rep.ok and rep.checked_words == 178_808
        assert max(rows.values()) == 1 and max(masks.values()) == 1
        assert not steps
        assert len(rows) <= 144

    def test_clean_sweep_stays_within_the_readme_counts(self, monkeypatch):
        L = q_locality("s5")
        rows, _, steps = count_walker(monkeypatch)
        calls = Counter()
        for cls, name in [(Locality, "binary"), (FiniteGroup, "mult"),
                          (FiniteGroup, "mult_row")]:
            def counted(self, *args, _f=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _f(self, *args)

            monkeypatch.setattr(cls, name, counted)
        rep = _check_axioms_bounded(L, 3)
        monkeypatch.undo()
        assert rep.ok
        assert sum(rows.values()) <= 80 and not steps
        assert calls["binary"] <= 1_600
        # the row products come off the Cayley rows, one `mult_row` per row;
        # every `mult` is a pair-table product
        assert calls["mult_row"] <= 80
        assert calls["mult"] <= 1_600

    def test_w_inverse_w_is_decided_per_sandwich_group(self):
        # every end state of w**-1 * w is read through the sweep's `verdict`:
        # once per (group, tail, x) at lengths 2 and 3, and once per letter at
        # length 1, since no letter is flagged on this carrier.  A walk per
        # word would read 56 + 1 600 + 40 448 end states, one per word with a
        # product.
        L = q_locality("s5")
        calls = Counter()

        def count(frame, event, _arg):
            code = frame.f_code
            if event == "call" and code.co_name == "verdict" and (
                    code.co_filename == _check_axioms_bounded.__code__.co_filename):
                calls["verdict"] += 1

        sys.setprofile(count)
        try:
            rep = _check_axioms_bounded(L, 3)
        finally:
            sys.setprofile(None)
        assert rep.ok
        assert 56 < calls["verdict"] <= 1_928

    def test_huge_max_len_is_refused_at_once(self, monkeypatch):
        L = q_locality("s5")
        rows, masks, steps = count_walker(monkeypatch)
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded):
            check_axioms(L, max_len=10**6)
        assert time.perf_counter() - t0 < 1.0
        assert not rows and not masks and not steps  # before any row is built


def fresh(L):
    """A copy of a locality with none of its memos filled."""
    return Locality(L.group, L.elements, L.S, L.delta, L.p)


def orbit_carrier(name):
    """The partial-domain carriers the orbit sweep is compared on: the
    s5/2 F^q locality and the cr-closure localities of a6/2 and s6/2."""
    if name == "s5":
        return fresh(q_locality("s5"))
    return fresh(frontier_growth(name, 2).base)


def decided_rows(pg, max_len, gens=None):
    """The sweep's report, and by length k the rows of its second pass with
    a product: each such row lists its letters once, by `mask_members` on
    the line below."""
    lines, first = inspect.getsourcelines(_check_axioms_bounded)
    line = first + next(i for i, text in enumerate(lines)
                        if "rest_xs = mask_members(rest)" in text)
    code, rows = _check_axioms_bounded.__code__, Counter()

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is mask_members.__code__:
            up = frame.f_back
            if up.f_code is code and up.f_lineno == line:
                rows[up.f_locals["k"]] += 1

    sys.setprofile(count)
    try:
        rep = _check_axioms_bounded(pg, max_len, gens)
    finally:
        sys.setprofile(None)
    return rep, rows


class TwistedZ5(TablePartial):
    """Z/5 whose products on the orbit of (1, 2) under x -> 2x are 0, so that
    x -> 2x is still an automorphism of the table.  The walker reads the
    true sums, so the only faults are those of the inverse words: (1, 2)
    has product 0, its inverse word (3, 4) has 2."""

    def __init__(self):
        els = tuple(range(5))
        products = {(x, y): (x + y) % 5 for x in els for y in els}
        for k in range(4):
            t = pow(2, k, 5)
            products[t, 2 * t % 5] = 0
        super().__init__(els, 0, {x: -x % 5 for x in els}, products)

    def product(self, word):
        return sum(word) % 5


class TestOrbitSweep:
    """The sweep reads one top-level prefix per N_L(S)-orbit on an exact
    `Locality`, and every prefix on any other carrier."""

    @pytest.mark.parametrize("name", ["s5", "a6", "s6"])
    def test_generators_give_the_orbits_of_n_l_s(self, name, monkeypatch):
        L = orbit_carrier(name)
        calls = Counter()
        mult = FiniteGroup.mult

        def counted(G, i, j):
            calls["mult"] += 1
            return mult(G, i, j)

        monkeypatch.setattr(FiniteGroup, "mult", counted)
        gens = L.automorphisms()
        monkeypatch.undo()
        assert gens and not calls  # built from permutations, not Cayley rows
        reps = {L.elements[i] for i, r in enumerate(_orbit_reps(gens, len(L.elements)))
                if i == r}
        assert reps == orbit_representatives(L)

    @pytest.mark.parametrize("name,max_len", [("s5", 2), ("s5", 3), ("a6", 2),
                                              ("a6", 3), ("s6", 2), ("s6", 3)])
    def test_orbit_sweep_matches_the_whole_sweeps(self, name, max_len):
        L = orbit_carrier(name)
        assert not L.full_domain
        got = _check_axioms_bounded(L, max_len)
        assert got.ok and got.checked_words == sum(
            len(L.elements)**k for k in range(1, max_len + 1))
        assert got == _check_axioms_bounded(fresh(L), max_len, ())
        if (name, max_len) != ("s6", 3):  # 518 480 words, 5 s word by word
            assert got == reference_check_axioms_bounded(fresh(L), max_len)

    def test_s5_decides_264_top_rows_not_1600(self):
        L = q_locality("s5")
        got, rows = decided_rows(fresh(L), 3)
        whole, all_rows = decided_rows(fresh(L), 3, ())
        assert got == whole and got.ok
        # |N_L(S)| = 8; the levels below the top stay whole
        assert rows == {1: 1, 2: 56, 3: 264}
        assert all_rows == {1: 1, 2: 56, 3: 1_600}

    def test_unchecked_carriers_get_no_generators(self):
        L = q_locality("s5")
        carriers = [UncheckedLocality(L.group, L.elements, L.S, L.delta, 2), WrongEnd(L),
                    not_f_closed_locality(), GroupPartial(builtin("s3")), z4_table()]
        assert L.automorphisms()
        for pg in carriers:
            assert pg.automorphisms() == ()
            assert_same_report(pg, 2)

    @pytest.mark.parametrize("max_len", [2, 3])
    def test_inverse_words_at_skipped_prefixes(self, max_len):
        # x -> 2x has the orbits {0} and {1, 2, 3, 4}, so only the prefixes
        # led by 0 or 1 are read; a faulty word read there, such as (1, 2),
        # has its inverse word (3, 4) under a skipped prefix, whose row and
        # pair-table entries the sweep builds when it asks for them
        pg, tau = TwistedZ5(), (0, 2, 4, 1, 3)
        assert all(pg.binary(tau[x], tau[y]) == tau[pg.binary(x, y)]
                   and pg.inv(tau[x]) == tau[pg.inv(x)] for x in range(5) for y in range(5))
        want = reference_check_axioms_bounded(pg, max_len)
        assert _check_axioms_bounded(pg, max_len, (tau,)) == want
        assert not want.ok
        if max_len == 2:
            assert {v.detail for v in want.violations} == {
                "product of inverse word is not the inverse"}
            assert len(want.violations) == 8

    def test_a_violation_reruns_the_sweep_on_the_trivial_group(self, monkeypatch):
        # WrongEnd's fault on an exact Locality, which keeps its generators:
        # the orbit sweep records a violation and hands the report to the
        # sweep on the trivial group, so words, order and cap are the whole
        # sweep's
        L = fresh(q_locality("s5"))
        wrong = next(g for g in L.S.members() if g != L.identity)
        walk_product, product = Locality.walk_product, Locality.product

        def broken(pg, state):
            return wrong if state == pg.walk_start() else walk_product(pg, state)

        def broken_product(pg, word):
            product(pg, word)  # DomainError off D
            return broken(pg, pg.walk(word))

        monkeypatch.setattr(Locality, "walk_product", broken)
        monkeypatch.setattr(Locality, "product", broken_product)
        sweep, calls = partial._check_axioms_bounded, []

        def spy(pg, max_len, gens=None):
            calls.append(gens)
            return sweep(pg, max_len, gens)

        monkeypatch.setattr(partial, "_check_axioms_bounded", spy)
        assert L.automorphisms()
        for max_len in (2, 3):
            calls.clear()
            got = sweep(L, max_len)
            assert calls == [()]
            assert len(got.violations) == (72 if max_len == 2 else MAX_VIOLATIONS)
            assert got == sweep(L, max_len, ())
        assert got.violations == _check_axioms_bounded(WrongEnd(L), 3).violations
        assert sweep(L, 2) == reference_check_axioms_bounded(L, 2)


def one_element_locality():
    """The locality {1} on S3 at p = 5, whose S is trivial: a row of one
    letter."""
    G = builtin("s3")
    S = sylow_p(G.top, 5)
    return Locality(G, [0], S, object_set(S, [S]), 5)


def walker_carrier(name):
    """A fresh carrier by name: s5/2 F^q copies that skip the checks (or
    break the inverse word), the one-element locality, and the orbit
    sweep's exact carriers."""
    if name == "not-f-closed":
        return not_f_closed_locality()
    if name == "one-element":
        return one_element_locality()
    if name in ("unchecked", "wrong-end"):
        L = q_locality("s5")
        return (UncheckedLocality(L.group, L.elements, L.S, L.delta, 2)
                if name == "unchecked" else WrongEnd(L))
    return orbit_carrier(name)


class TestWalkerRows:
    """`Locality.walk_row`, the one row hook the sweep steps by, against a
    `walk_step` per letter, and the sweep that reads it against the
    word-by-word and trivial-group sweeps, on carriers `check_carrier`
    does not build."""

    @pytest.mark.parametrize("name", ["not-f-closed", "unchecked", "wrong-end",
                                      "one-element", "s5", "a6", "s6"])
    def test_rows_match_the_single_steps(self, name):
        L = walker_carrier(name)
        assert check_walker_rows(L) > 1 or len(L.elements) == 1
        assert (_check_axioms_bounded(L, 2)
                == reference_check_axioms_bounded(walker_carrier(name), 2))
        assert (_check_axioms_bounded(L, 3)
                == _check_axioms_bounded(walker_carrier(name), 3, ()))
