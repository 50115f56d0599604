"""The prefix-state axiom sweep against the word-by-word sweep it replaced."""

import itertools

import pytest

from llab.errors import DomainError
from llab.locality import locality_from_group
from llab.partial import (
    AxiomReport,
    AxiomViolation,
    _cap_words,
    _check_axioms_bounded,
)
from table_partial import TablePartial
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
            if prod[wi] != pg.inv(value):
                record("4", word, "product of inverse word is not the inverse")

    for x in els:
        if pg.inv(pg.inv(x)) != x:
            record("4", (x,), "inversion is not involutory")

    return AxiomReport(ok=not bad, checked_words=checked, violations=bad)


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
