"""Partial groups: products defined only on a distinguished set of words.

A partial group is a finite element set L with an involution x -> x**-1 and
a product defined on a set D of words over L satisfying:

  (1) every length-1 word lies in D, and D is closed under taking
      contiguous subwords;
  (2) the product restricts to the identity on length-1 words;
  (3) replacing a contiguous segment of a domain word by its product keeps
      the word in D and preserves the product;
  (4) for w in D, the word w**-1 * w lies in D and multiplies to the
      identity.

Element keys are opaque hashables (group ordinals, or class keys from
expansions); all ordering goes through the carrier's canonical element
tuple, never through raw keys.  Quotients are built only for full-domain
localities, by `locality.quotient_locality` from the maximal cosets that
`coset_partition` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import caps as _caps
from .errors import CapExceeded, DomainError, InputError, PropertyViolation
from .permgroup import mask_members

__all__ = [
    "PartialGroup",
    "PartialSubgroup",
    "PGHom",
    "AxiomViolation",
    "AxiomReport",
    "check_axioms",
    "generated_subgroup",
    "normal_closure",
    "products",
    "is_partial_normal",
    "all_partial_normal_subgroups",
    "coset_partition",
]


class PartialGroup:
    """Carrier state shared by every partial group: the canonical element
    tuple, the identity, and the memos that live as long as the carrier.

    A subclass fills in `elements` and `identity` before calling
    `__init__`, and provides the word protocol the sweeps read: `inv`,
    `in_domain`, `binary`, `domain_row`, `conjugates`, `product` and the
    walker hooks `walk_start`, `walk_step`, `walk_row`, `walk_in_domain`
    and `walk_product`.  It may also hand out automorphisms
    (`automorphisms`), so that the sweeps read one representative per orbit.
    A walker state summarizes a word's prefix; states are hashable, and
    equal states have equal futures, so the axiom sweep interns them.
    Letters are carrier elements, and `walk_product` is asked only of
    states that `walk_in_domain` accepts.  `walk_row(state, successors)`
    steps a state by every letter at once: it returns the mask of the
    carrier indices whose `walk_step` successor `walk_in_domain` accepts,
    and, when `successors`, those successors in carrier order (else None);
    the axiom sweep steps only through it.
    """

    elements: tuple = ()
    identity = None
    full_domain = False

    def __init__(self):
        self._index = {x: i for i, x in enumerate(self.elements)}
        # member sets of all_partial_normal_subgroups, filled on first use
        self._normal_lattice: tuple | None = None
        # conjugacy classes with their inverse and product masks (_class_table)
        self._classes = None
        # domain rows, kept by the subclass's `domain_row`
        self._domain_rows: dict = {}

    def automorphisms(self) -> tuple:
        """Generators of a group of automorphisms of the partial group, as
        permutations of carrier indices, each the conjugation x -> x**f by
        an element f for which every x**f is defined: the axiom sweep reads
        the orbits of words, the class table those of elements.  None here,
        so every element is read; `Locality` gives N_L(S)'s."""
        return ()

    def walk(self, word):
        """State of a word, walked from the start state."""
        state = self.walk_start()
        for x in word:
            state = self.walk_step(state, x)
        return state

    def walk_domain(self, max_len: int):
        """Yield (word, state) for every domain word of length 1..max_len.

        Shortest first, then lexicographic in carrier order.  Only domain
        words are extended: by axiom (1) every prefix of a domain word is
        in D.
        """
        frontier = [((), self.walk_start())]
        for _ in range(max_len):
            nxt = []
            for w, state in frontier:
                for x in self.elements:
                    st = self.walk_step(state, x)
                    if self.walk_in_domain(st):
                        u = w + (x,)
                        nxt.append((u, st))
                        yield u, st
            frontier = nxt

    def index_of(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise InputError(f"{x!r} is not an element of this partial group")

    def member_mask(self, xs) -> int:
        m = 0
        for x in xs:
            m |= 1 << self.index_of(x)
        return m


# -- axiom checking ----------------------------------------------------------

MAX_VIOLATIONS = 200  # an axiom check records no more violations than this


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    word: tuple
    detail: str


@dataclass
class AxiomReport:
    ok: bool
    checked_words: int
    violations: list = field(default_factory=list)

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return f"axioms: {status}, {self.checked_words} words checked"


def check_axioms(pg: PartialGroup, max_len: int = 4) -> AxiomReport:
    """Exhaustively verify axioms (1)-(4) on all words of length <= max_len.

    Violations are returned as data, never raised.  Carriers with full word
    domain are checked through the equivalent finite-group conditions
    (closure, identity, inverses, associativity), which cover words of
    every length at once; the products are one index row per element, and
    associativity is compared a row of z at a time.

    Other carriers are swept with their word walker a prefix row at a time.
    Each distinct walker state gets at most one row from the carrier's
    `walk_row`, its successor states by letter, and one mask of the letters
    that stay in D, which a top-level prefix reads alone.  Every one of
    the n + ... + n**max_len words is still decided, none skipped under a
    prefix outside D, because each word is a bit of its prefix's row and
    every prefix of length < max_len has a row.  Products come from one
    table of `binary` on D's pairs, held as carrier indices, with the
    escaped and failed products as masks.  Every test is a row mask: the
    prefix, suffix, contracted-pair and escape tests and the contractions
    of segments ending before the last letter are exact mask operations;
    the contractions of segments [i:k] with i >= 1, w**-1 * w and the
    inverse-word test are list lookups over the row's letters, which may
    flag a letter that passes but never pass one that fails.  w**-1 * w is
    decided per group of states, not per word: for w = (d0,) + tail + (x,)
    its end state depends only on the state u after (x**-1,) + tail**-1 +
    (d0**-1, d0) and on (tail, x), so the d0 are grouped by u, tail + x is
    walked once per group, and a table per length masks by (tail, x) the
    d0 that fail.  Only flagged letters are visited word by word, and the
    violations, their order and the MAX_VIOLATIONS cap are those of the
    word-by-word sweep: the domain and contracted-pair tests on every word,
    then the contraction and inverse tests on every word with a product,
    each pass in `itertools.product` order.  On a carrier with
    automorphisms (`automorphisms`, N_L(S) on a `Locality`) both passes
    read one prefix of length max_len - 1 per orbit, and a sweep that
    records a violation runs again on the trivial group, so the report is
    the same.
    """
    if max_len < 2:
        raise InputError("axiom check needs max_len >= 2")
    if pg.full_domain:
        return _check_axioms_table(pg)
    return _check_axioms_bounded(pg, max_len)


def _check_axioms_table(pg: PartialGroup) -> AxiomReport:
    els = pg.elements
    n = len(els)
    _cap_words(n, 3, "axiom table check")  # the checked_words reported below
    index = pg._index
    bad = []

    def record(axiom, word, detail):
        if len(bad) < MAX_VIOLATIONS:
            bad.append(AxiomViolation(axiom, word, detail))

    e = pg.identity
    if e not in index:
        record("2", (), "identity is not an element")
    # code[x][y] names the product of the pair (x, y) by an int: its carrier
    # index, n where there is none, and n + 1, ... for the distinct values
    # outside the carrier; raw[c] is the value a code names
    code, outside = [], {}
    for x in els:
        row = []
        for y in els:
            if not pg.in_domain((x, y)):
                record("1", (x, y), "pair missing from full domain")
                row.append(n)
                continue
            z = pg.binary(x, y)
            c = index.get(z)
            if c is None:
                record("1", (x, y), "product escapes the carrier")
                c = n if z is None else outside.setdefault(z, n + 1 + len(outside))
            row.append(c)
        code.append(row)
    raw = [*els, None, *outside]

    def product(a, b):
        i, j = index.get(a), index.get(b)
        return None if i is None or j is None else raw[code[i][j]]

    for x in els:
        if product(e, x) != x or product(x, e) != x:
            record("2", (x,), "identity law fails")
        try:
            xi = pg.inv(x)
            involutory = pg.inv(xi) == x
        except Exception as exc:
            record("4", (x,), f"inversion failed: {exc}")
            continue
        if not involutory:
            record("4", (x,), "inversion is not involutory")
        if product(xi, x) != e or product(x, xi) != e:
            record("4", (xi, x), "inverse law fails")
    # (xy)z against x(yz), a row of z at a time: a product with no carrier
    # index has no products of its own, so code n stands for both sides
    spill = [n] * (len(raw) - n)
    nothing = [n] * n
    for x, cx in enumerate(code):
        through = cx + spill
        for y, xy in enumerate(cx):
            left = code[xy] if xy < n else nothing
            right = [through[c] for c in code[y]]
            if left != right and len(bad) < MAX_VIOLATIONS:
                for z in range(n):
                    if left[z] != right[z]:
                        record("3", (els[x], els[y], els[z]), "associativity fails")
    return AxiomReport(ok=not bad, checked_words=n + n * n + n**3, violations=bad)


def _cap_words(n: int, max_len: int, what: str) -> None:
    """Refuse a sweep over all n + n**2 + ... + n**max_len words past axiom_words.

    The sum stops as soon as it passes the limit, so a huge max_len is
    refused at once.
    """
    limit = _caps.current().axiom_words
    total, term = 0, 1
    for _ in range(max_len):
        term *= n
        total += term
        if total > limit:
            raise CapExceeded(what, limit)


def _orbit_reps(perms, size: int) -> list:
    """rep[i], the least point of i's orbit in range(size) under the group
    the permutations generate: one breadth-first walk per orbit, from its
    least point, so |perms| lookups per point.  Points are started in
    ascending order, so a point k > i with rep[k] == k is not yet reached."""
    rep = list(range(size))
    for i in range(size):
        if rep[i] == i:
            orbit = [i]
            for j in orbit:  # breadth first: the loop reads what it appends
                for g in perms:
                    k = g[j]
                    if k > i and rep[k] == k:
                        rep[k] = i
                        orbit.append(k)
    return rep


def _word_perms(perms, n: int, m: int) -> list:
    """Each permutation of the n letters acting letterwise on the words of
    length m >= 1, numbered in base n with the first letter most
    significant: n**m entries per permutation."""
    out = []
    for g in perms:
        w = list(g)
        for _ in range(m - 1):
            w = [a * n + b for a in w for b in g]
        out.append(w)
    return out


_NONE = object()  # no value: no product, no inverse, or no verdict decided yet


class _ValueRow(NamedTuple):
    """Products of w + x by letter x, for one value of the product of w."""

    pairs: int  # letters x with (value, x) in D
    vals: list  # binary(value, x), _NONE where there is none
    idx: list  # carrier index of vals[x]: n where it escapes, n + 1 where none
    ok: int  # letters with a product
    fail: int  # letters where binary raised
    why: dict  # letter -> "binary product failed: ..."
    escape: int  # products outside the carrier
    short: int  # products in the carrier whose 1-letter word is outside D


def _check_axioms_bounded(pg: PartialGroup, max_len: int, gens=None) -> AxiomReport:
    """The bounded sweep of `check_axioms`, reading one top-level prefix
    per orbit of the group that `gens` generates (the carrier's
    `automorphisms` when None; pass () for the trivial group)."""
    els = pg.elements
    n = len(els)
    _cap_words(n, max_len, "axiom word enumeration")
    if gens is None:
        gens = pg.automorphisms()
    # The top-level prefixes, the words of length max_len - 1, are read one
    # per orbit: an automorphism carries each word and every test on it to
    # its image's, and the words that extend a prefix by a letter onto
    # those that extend the prefix's image.  A clean sweep of the
    # representatives is a clean sweep of all words; one that records a
    # violation sweeps again on the trivial group, so the report is the
    # whole sweep's.  The shorter levels stay whole, as the contractions
    # and inverse words index them, and a skipped prefix's state gets its
    # mask or row when another test reads it (`dom_of`, `groups`): at
    # max_len 2 the letters' masks are the pair table's.
    top_reps = range(n ** (max_len - 1))
    if gens:
        orbit = _orbit_reps(_word_perms(gens, n, max_len - 1), len(top_reps))
        top_reps = [p for p, r in enumerate(orbit) if p == r]
    index = pg._index
    identity = pg.identity
    bad = []

    def record(axiom, word, detail):
        if len(bad) < MAX_VIOLATIONS:
            bad.append(AxiomViolation(axiom, word, detail))

    if not pg.in_domain(()):
        record("1", (), "empty word not in domain")

    # Walker states are interned, and every step reads a row of the
    # carrier's `walk_row`.  A state that prefixes a word shorter than
    # max_len, and any state a w**-1 * w walk steps from, gets its row: its
    # successor ids by letter.  `doms` holds the mask of letters whose
    # successor is in D, read without the successors where only the mask is
    # asked for (a top-level prefix), and `verdicts` each end state's axiom
    # (4) detail once decided.
    ids, states, indom, rows, doms, verdicts = {}, [], [], [], [], []

    def intern(st):
        i = ids.get(st)
        if i is None:
            i = ids[st] = len(states)
            states.append(st)
            indom.append(pg.walk_in_domain(st))
            rows.append(None)
            doms.append(None)
            verdicts.append(_NONE)
        return i

    def build_row(i):
        doms[i], succ = pg.walk_row(states[i])
        rows[i] = list(map(intern, succ))
        return rows[i]

    def dom_of(i):
        """doms[i], read off the carrier's row mask when not yet known."""
        d = doms[i]
        if d is None:
            d = doms[i] = pg.walk_row(states[i], False)[0]
        return d

    # The words of length m < max_len are numbered in base n, first letter
    # most significant, which is itertools.product order.  For each level m
    # and word w: sid[m][w] its state id, pidx[m][w] the carrier index of its
    # product (`esc` when the product leaves the carrier, `none` when the
    # sweep forms none) and pmask[m][w] the letters x for which w + x gets a
    # product.
    esc, none = n, n + 1
    pw = [n**m for m in range(max_len + 1)]
    s0 = intern(pg.walk_start())
    build_row(s0)
    d1 = doms[s0]
    sid, pmask = [[s0], rows[s0]], [[d1]]
    # level 0, the empty word, reads `first_row` below instead of pidx
    pidx = [None, [x if d1 >> x & 1 else none for x in range(n)]]

    def digits(m, w):
        out = []
        for _ in range(m):
            w, d = divmod(w, n)
            out.append(d)
        return out[::-1]

    # Every product the sweep forms is the prefix's product times the last
    # letter, so the products come from one pair table, a row per left
    # factor by carrier index; `esc` and `none` index the empty row.
    first_row = _ValueRow(d1, list(els), list(range(n)), d1, 0, {}, 0, 0)
    no_row = _ValueRow(0, [_NONE] * n, [none] * n, 0, 0, {}, 0, 0)
    table = [None] * n + [no_row, no_row]

    def pair_row(i):
        a, pairs = els[i], dom_of(sid[1][i])
        vals, idx = [_NONE] * n, [none] * n
        ok = fail = escape = short = 0
        why = {}
        for x in mask_members(pairs):
            try:
                v = pg.binary(a, els[x])
            except Exception as exc:  # corrupted tables
                fail |= 1 << x
                why[x] = f"binary product failed: {exc}"
                continue
            vals[x] = v
            ok |= 1 << x
            j = index.get(v)
            if j is None:
                escape |= 1 << x
                idx[x] = esc
            else:
                idx[x] = j
                if not d1 >> j & 1:
                    short |= 1 << x
        table[i] = _ValueRow(pairs, vals, idx, ok, fail, why, escape, short)
        return table[i]

    for x in mask_members(((1 << n) - 1) & ~d1):
        record("1", (els[x],), "length-1 word not in domain")

    # Axioms (1) and (3), a prefix row at a time: the row's domain mask
    # against the prefix's own flag, the row of the prefix minus its first
    # letter, and the value row of the prefix's product.
    nones = [none] * n
    for k in range(2, max_len + 1):
        top = k == max_len
        up_sid, up_pidx, suf_sid, span = sid[k - 1], pidx[k - 1], sid[k - 2], pw[k - 2]
        # at the top level only the representatives get their pmask entry
        level_pm, nsid, npidx = [None] * len(up_sid), [], []
        for p in top_reps if top else range(len(up_sid)):
            s = up_sid[p]
            if not top:
                nx = rows[s] or build_row(s)
            dom, pm, vr = dom_of(s), 0, None
            if dom:
                bad_pre = 0 if indom[s] else dom
                bad_suf = dom & ~doms[suf_sid[p % span]]
                bad_pair = fail = 0
                v = up_pidx[p]
                if v != none:
                    vr = table[v] or pair_row(v)
                    bad_pair, fail, pm = dom & ~vr.pairs, dom & vr.fail, dom & vr.ok
                hit = bad_pre | bad_suf | bad_pair | fail
                if hit and len(bad) < MAX_VIOLATIONS:
                    pre = tuple(els[y] for y in digits(k - 1, p))
                    for x in mask_members(hit):
                        word, b = pre + (els[x],), 1 << x
                        if bad_pre & b:
                            record("1", word, "prefix missing from domain")
                        if bad_suf & b:
                            record("1", word, "suffix missing from domain")
                        if bad_pair & b:
                            record("3", word, "contracted prefix pair leaves domain")
                        elif fail & b:
                            record("3", word, vr.why[x])
            level_pm[p] = pm
            if not top:
                nsid.extend(nx)
                if not pm:
                    npidx.extend(nones)
                elif pm == vr.ok:
                    npidx.extend(vr.idx)
                else:
                    npidx.extend(j if pm >> x & 1 else none for x, j in enumerate(vr.idx))
        pmask.append(level_pm)
        if not top:
            sid.append(nsid)
            pidx.append(npidx)

    def top_pm(p):
        """pmask of a top-level prefix p that the first pass skipped."""
        v, s = pidx[max_len - 1][p], sid[max_len - 1][p]
        return 0 if v == none else dom_of(s) & (table[v] or pair_row(v)).ok

    # the value row of every word shorter than max_len, level by level
    vrows = [[first_row]] + [[table[v] or pair_row(v) for v in level]
                             for level in pidx[1:]]

    # inverses by letter: the carrier index, -1 where inv raises (the error
    # is kept) or leaves the carrier; inv_bad masks those letters
    inverse, inv_of, inv_error, inv_bad = [], [], {}, 0
    for i, x in enumerate(els):
        try:
            xi = pg.inv(x)
        except Exception as exc:
            xi = _NONE
            inv_error[i] = exc
        inverse.append(xi)
        inv_of.append(index.get(xi, -1))
        if inv_of[i] < 0:
            inv_bad |= 1 << i

    def walk_on(s, letters):
        """The state id reached from state id s by the letters."""
        for y in letters:
            s = (rows[s] or build_row(s))[y]
        return s

    def verdict(st):
        """The axiom (4) detail of the end state st of w**-1 * w, or None."""
        got = verdicts[st]
        if got is _NONE:
            if not indom[st]:
                got = "w**-1 * w not in domain"
            else:
                try:
                    ok = pg.walk_product(states[st]) == identity
                    got = None if ok else "w**-1 * w is not the identity"
                except DomainError:
                    got = "w**-1 * w fold left the domain"
            verdicts[st] = got
        return got

    # Axiom (4) by sandwich groups.  Write w = (d0,) + tail + (x,), so that
    # w**-1 * w = (x**-1,) + tail**-1 + (d0**-1, d0) + tail + (x,).  The
    # state t of (x**-1,) + tail**-1 is interned, a word one letter shorter
    # than w, and equal states have equal futures, so the end state depends
    # only on (u, tail, x), with u the state reached from t by d0**-1 and
    # d0.  So the letters d0 split once per t into groups by u, tail + x is
    # walked once per group, and end_fails[tail * n + x] masks the d0 whose
    # end state fails.  A d0 whose state after d0**-1 lies outside D joins
    # no group, so nothing is stepped from there; it is masked, and the
    # recorder decides a live word through it by its own walk.
    sandwich = {}  # state id t -> ([(u, mask of its d0)], mask of the d0 in no group)

    def groups(t):
        got = sandwich.get(t)
        if got is None:
            by_u, out, nt = {}, 0, rows[t] or build_row(t)
            for d0, a0 in enumerate(inv_of):
                if a0 < 0:
                    continue  # its rows are flagged whole
                a = nt[a0]
                if indom[a]:
                    u = (rows[a] or build_row(a))[d0]
                    by_u[u] = by_u.get(u, 0) | 1 << d0
                else:
                    out |= 1 << d0
            got = sandwich[t] = (list(by_u.items()), out)
        return got

    def end_fail_table(k):
        """Level k >= 2, indexed tail * n + x: end_fails, masking the d0 to
        walk word by word, and inv_idx, the index row of the product of
        (x**-1,) + tail**-1; and rinv[tail], the number of tail**-1 (-1
        where a letter of the tail has no inverse in the carrier)."""
        span, tsid, trows = pw[k - 2], sid[k - 1], vrows[k - 1]
        need = [0] * span  # the letters x live after some (d0,) + tail
        for p, live in enumerate(pmask[k - 1]):
            if live:
                need[p % span] |= live
        end_fails, inv_idx, rinv = [0] * (span * n), [None] * (span * n), [-1] * span
        for tail, xs in enumerate(need):
            tl = digits(k - 2, tail)
            invs = [inv_of[y] for y in tl]
            if -1 in invs:
                continue
            rinv[tail] = r = sum(a * pw[i] for i, a in enumerate(invs))
            for x in mask_members(xs & ~inv_bad):
                q, i = inv_of[x] * span + r, tail * n + x
                inv_idx[i] = trows[q].idx
                grp, fails = groups(tsid[q])
                for u, dm in grp:
                    if verdict(walk_on(u, (*tl, x))):
                        fails |= dm
                end_fails[i] = fails
        return end_fails, inv_idx, rinv

    # Axioms (3) and (4) on every word with a product, in the order the
    # products were formed.  Each prefix row first flags, in bulk, every
    # letter that may fail a test: the contractions of segments that end
    # before the last letter, and of the whole word, are exact masks
    # (4-tuples below); the segments [i:k] with i >= 1 (7-tuples), the
    # end_fails table and the inverse word are list lookups over the row's
    # letters, which may flag a letter that passes but never pass one that
    # fails.  Only flagged letters are then decided and recorded word by
    # word.
    for k in range(1, max_len + 1):
        wsid, wpm, wrows = sid[k - 1], pmask[k - 1], vrows[k - 1]
        span = pw[k - 2] if k > 1 else 0
        if k > 1:
            end_fails, inv_idx, rinv = end_fail_table(k)
        for p, live in enumerate(wpm):
            if not live:
                continue
            vr = wrows[p]
            vidx = vr.idx
            escape = live & vr.escape
            rest = live ^ escape
            flag = escape
            # the letters of rest, shared by the letter-wise tests below
            # whenever their masks are rest itself
            rest_xs = mask_members(rest)
            entries = []
            for i in range(k):
                for j in range(i + 2, k + 1):
                    if j == k and i > 0:
                        # pre[:i] + (product of w[i:],): that product's index
                        # must continue the head's products to this value
                        head, tail = divmod(p, pw[k - 1 - i])
                        spm = pmask[k - 1 - i][tail]
                        ms = rest & spm
                        if not ms:
                            continue
                        srow = vrows[k - 1 - i][tail]
                        entries.append((i, j, doms[sid[i][head]], pmask[i][head],
                                        vrows[i][head], spm, srow))
                        flag |= ms & srow.escape
                        cont, base, sidx = pidx[i + 1], head * n, srow.idx
                        ms &= ~srow.escape
                        for x in [x for x in (rest_xs if ms == rest else mask_members(ms))
                                  if cont[base + sidx[x]] != vidx[x]]:
                            flag |= 1 << x
                        continue
                    if j == k:
                        leave, change = rest & vr.short, 0
                    else:
                        q = pidx[j - i][p // pw[k - 1 - j] % pw[j - i]]
                        if q == none:
                            continue
                        leave, change = rest, 0
                        if q != esc:
                            # pre[:i] + (q,) + pre[j:], shorter than pre
                            after = pw[k - 1 - j]
                            clen = i + k - j
                            c = ((p // pw[k - 1 - i]) * n + q) * after + p % after
                            leave = rest & ~doms[sid[clen][c]]
                            cand = rest & pmask[clen][c]
                            if cand and pidx[clen][c] != pidx[k - 1][p]:
                                cidx = vrows[clen][c].idx
                                for x in mask_members(cand):
                                    if cidx[x] != vidx[x]:
                                        change |= 1 << x
                    if leave | change:
                        entries.append((i, j, leave, change))
                        flag |= leave | change
            # w**-1 * w: for k >= 2, one lookup in end_fails per letter, and the
            # inverse word's product, that of (x**-1,) + tail**-1 + (d0**-1,),
            # against the inverse of the product; for k = 1, w**-1 * w is
            # (x**-1, x), walked from the state of x**-1
            if k == 1:
                inv_ok = True
            else:
                d0, tail = divmod(p, span)
                r, a0 = rinv[tail], inv_of[d0]
                inv_ok = r >= 0 and a0 >= 0  # the prefix's letters have inverses
            if inv_ok:
                ok = rest & ~inv_bad
                flag |= rest ^ ok
                xs = rest_xs if ok == rest else mask_members(ok)
                if k == 1:
                    hits = [x for x in xs if verdict(walk_on(sid[1][inv_of[x]], (x,)))]
                else:
                    row_fails = end_fails[tail * n:tail * n + n]
                    row_inv = inv_idx[tail * n:tail * n + n]
                    hits = [x for x in xs if row_fails[x] >> d0 & 1
                            or row_inv[x][a0] != inv_of[vidx[x]]]
                for x in hits:
                    flag |= 1 << x
            else:
                flag |= rest
            if not flag or len(bad) >= MAX_VIOLATIONS:
                continue
            d = digits(k - 1, p)
            pre = tuple(els[y] for y in d)
            pre_error = next((inv_error[y] for y in reversed(d) if y in inv_error),
                             None)
            # letter -> its w**-1 * w verdict, walked word by word from the
            # state of w**-1 minus its last letter
            ends = {}
            if inv_ok:
                mid = (a0, *d) if k > 1 else ()
                for x in mask_members(flag & rest & ~inv_bad):
                    start = wsid[inv_of[x] * span + r] if k > 1 else sid[1][inv_of[x]]
                    ends[x] = verdict(walk_on(start, (*mid, x)))
            for x in mask_members(flag):
                b = 1 << x
                word = pre + (els[x],)
                if escape & b:
                    record("1", word, "product escapes the carrier")
                    continue
                for entry in entries:
                    i, j = entry[0], entry[1]
                    if len(entry) == 4:
                        if entry[2] & b:
                            record("3", word, f"contraction of [{i}:{j}] leaves domain")
                        elif entry[3] & b:
                            record("3", word, f"contraction of [{i}:{j}] changes product")
                        continue
                    _, _, hdom, hpm, hrow, spm, srow = entry
                    if not spm & b:
                        continue
                    qi = srow.idx[x]
                    if qi == esc or not hdom >> qi & 1:
                        record("3", word, f"contraction of [{i}:{j}] leaves domain")
                    elif hpm >> qi & 1 and hrow.idx[qi] != vidx[x]:
                        record("3", word, f"contraction of [{i}:{j}] changes product")
                if x in inv_error or pre_error is not None:
                    exc = inv_error.get(x, pre_error)
                    record("4", word, f"inversion failed: {exc}")
                    continue
                if x not in ends:
                    record("4", word, "w**-1 * w not in domain")
                    continue
                if ends[x]:
                    record("4", word, ends[x])
                w, last = (0, inv_of[x]) if k == 1 else (inv_of[x] * span + r, a0)
                if (top_pm(w) if wpm[w] is None else wpm[w]) >> last & 1:
                    vi = vidx[x]
                    if vi in inv_error:
                        record("4", word, f"inversion failed: {inv_error[vi]}")
                    elif wrows[w].vals[last] != inverse[vi]:
                        record("4", word, "product of inverse word is not the inverse")

    for x in els:
        try:
            if pg.inv(pg.inv(x)) != x:
                record("4", (x,), "inversion is not involutory")
        except Exception as exc:
            record("4", (x,), f"inversion failed: {exc}")

    if bad and gens:
        return _check_axioms_bounded(pg, max_len, ())
    return AxiomReport(ok=not bad, checked_words=sum(pw[1:]), violations=bad)


# -- partial subgroups -------------------------------------------------------


@dataclass(frozen=True)
class PartialSubgroup:
    pg: PartialGroup
    members: frozenset

    @property
    def order(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"PartialSubgroup(order={self.order})"


def products(pg: PartialGroup, xs, ys) -> frozenset:
    """The products x*y over x in xs and y in ys with (x, y) in D.

    The one pair sweep: each x reads its domain row, so only pairs in D
    are multiplied.
    """
    return frozenset(pg.binary(x, y) for x in xs
                     for y in pg.domain_row(x).intersection(ys))


def generated_subgroup(pg: PartialGroup, xs) -> PartialSubgroup:
    """Least partial subgroup containing xs: the least set holding xs and 1
    closed under inverses and under products of pairs in D.

    That set is a partial subgroup: axiom (3) contracts any domain word to a
    fold of binary products whose intermediate pairs stay in D.  Semi-naive
    rounds: each fresh element's inverse and products with the current set
    go into the next frontier, so a pair of old elements, tried in an
    earlier round, is never tried again.
    """
    cur, fresh = set(), set(xs) | {pg.identity}
    while fresh:
        pg.member_mask(fresh)  # an element outside the carrier is an input error
        old, cur = cur, cur | fresh
        new = {pg.inv(x) for x in fresh} | products(pg, fresh, cur)
        fresh = (new | products(pg, old, fresh)) - cur
    return PartialSubgroup(pg, frozenset(cur))


class _Classes(NamedTuple):
    """A carrier's conjugacy classes, each named by its least carrier index."""

    of: list  # carrier index -> its class
    inv: dict  # class -> mask of the classes its members' inverses lie in
    prod: dict  # class a -> {class b: mask of the classes of D's products a*b}


def _class_table(pg: PartialGroup) -> _Classes:
    """The carrier's conjugacy classes with their inverse and product masks,
    built on first use and kept on the carrier.

    The classes are the components of x -- x**g.  In a partial group y = x**g
    gives x = y**(g**-1), so a set closed under the defined conjugates is a
    union of classes, and a partial normal subgroup is the least union of
    classes that holds its seed and 1 and is closed under the inverse and
    product masks.  Every partial-normal question reads these masks.

    One pass builds them over one representative x per orbit of the
    carrier's automorphisms (`automorphisms`; an orbit of N_L(S) on a
    locality): one `conjugates` row and one `domain_row` per orbit, and one
    product per pair of D with a representative on the left.  For an
    automorphism f the classes are unions of orbits, as x**f is a defined
    conjugate of x, so the representative's row merges its orbit; and f
    carries the conjugates, inverse and products of x onto those of x**f:
    (x**f)**(g**f) = (x**g)**f and (x**f, y**f) -> (xy)**f.  So the other
    members of an orbit add no class, no inverse and no product mask.
    With no automorphisms every x is its own representative.  An inverse,
    conjugate or product outside the carrier is an input error.
    """
    if pg._classes is None:
        els, index = pg.elements, pg.index_of
        of = list(range(len(els)))
        orbit = _orbit_reps(pg.automorphisms(), len(els))
        reps = [i for i, r in enumerate(orbit) if i == r]
        for i in reps:
            # x's class and its conjugates' classes merge into the least one
            met = {of[i]} | {of[index(z)] for z in pg.conjugates(els[i])}
            if len(met) > 1:
                of = [min(met) if c in met else c for c in of]
        inv, prod = {}, {}
        for i in reps:
            x, a = els[i], of[i]
            inv[a] = inv.get(a, 0) | 1 << of[index(pg.inv(x))]
            row = prod.setdefault(a, {})
            for y in pg.domain_row(x):
                b = of[index(y)]
                row[b] = row.get(b, 0) | 1 << of[index(pg.binary(x, y))]
        pg._classes = _Classes(of, inv, prod)
    return pg._classes


def _class_closure(t: _Classes, fresh: int, cur: int = 0) -> int:
    """Least class set holding fresh and cur that is closed under inverses
    and products; cur must be closed already.

    Semi-naive rounds: each fresh class's inverses and its products with the
    current set (both ways round) go into the next frontier.
    """
    while fresh:
        cur |= fresh
        new, held = 0, mask_members(cur)
        for a in mask_members(fresh):
            row, new = t.prod[a], new | t.inv[a]
            for b in held:
                new |= row.get(b, 0) | t.prod[b].get(a, 0)
        fresh = new & ~cur
    return cur


def _members(pg: PartialGroup, t: _Classes, classes: int) -> frozenset:
    """The members of a class set."""
    return frozenset(x for x, c in zip(pg.elements, t.of) if classes >> c & 1)


def normal_closure(pg: PartialGroup, xs) -> PartialSubgroup:
    """Least partial normal subgroup containing xs, closed on class masks."""
    t = _class_table(pg)
    seed = sum({1 << t.of[pg.index_of(x)] for x in (pg.identity, *xs)})
    return PartialSubgroup(pg, _members(pg, t, _class_closure(t, seed)))


def is_partial_normal(pg: PartialGroup, sub: PartialSubgroup) -> bool:
    """True iff the members are their own normal closure."""
    return normal_closure(pg, sub.members).members == sub.members


def all_partial_normal_subgroups(pg: PartialGroup) -> list:
    """All partial normal subgroups, largest first, deterministic order; capped.

    A breadth-first join of classes: from the least partial normal subgroup,
    each found one is joined with every class outside it.  Complete: below
    a partial normal N, a join with a class of N stays in N and grows, so N
    is reached one class at a time.  A partial group's elements and domain
    are fixed at construction, so the lattice is enumerated once per
    carrier and kept there as member frozensets (a PartialSubgroup points
    back at the carrier and would make a reference cycle); each call
    returns a fresh list.
    """
    if pg._normal_lattice is None:
        cap = _caps.current().partial_normal
        if len(pg.elements) > cap:
            raise CapExceeded("partial-normal enumeration", cap)
        t = _class_table(pg)
        classes = sum(1 << c for c in set(t.of))
        found = [_class_closure(t, 1 << t.of[pg.index_of(pg.identity)])]
        seen = set(found)
        for base in found:  # found grows as it is read: breadth first
            for c in mask_members(classes & ~base):
                joined = _class_closure(t, 1 << c, base)
                if joined not in seen:
                    seen.add(joined)
                    found.append(joined)
                    if len(found) > cap:
                        raise CapExceeded("partial-normal enumeration", cap)
        pg._normal_lattice = tuple(sorted((_members(pg, t, m) for m in found),
                                          key=lambda m: (-len(m), pg.member_mask(m))))
    return [PartialSubgroup(pg, m) for m in pg._normal_lattice]


# -- cosets -------------------------------------------------------------------


def coset_partition(pg: PartialGroup, sub: PartialSubgroup) -> tuple:
    """Maximal right cosets of a partial normal subgroup, by least member.

    The inclusion-maximal right cosets are checked to partition the
    carrier; a failure aborts with a witness element.  They cover it: g lies
    in its own right coset, and so in a maximal one.

    The whole carrier is partial normal, since every defined product and
    conjugate lies in it, and it is its own one maximal coset, as 1·g = g
    for every g: that partition needs neither the class table nor the cosets.
    """
    carrier = frozenset(pg.elements)
    if sub.members == carrier:
        return (carrier,)
    if not is_partial_normal(pg, sub):
        raise InputError("quotient requires a partial normal subgroup")
    cosets = {products(pg, sub.members, (g,)) | {g} for g in pg.elements}
    maximal = [c for c in cosets if not any(c < d for d in cosets)]
    seen = {}
    for c in maximal:
        for x in c:
            if x in seen and seen[x] is not c:
                raise PropertyViolation(
                    "maximal cosets fail to partition the carrier", witness=x
                )
            seen[x] = c
    maximal.sort(key=lambda c: min(pg.index_of(x) for x in c))
    return tuple(maximal)


# -- homomorphisms -----------------------------------------------------------


class PGHom:
    """Element-wise map between partial groups, checked on bounded words."""

    def __init__(self, source: PartialGroup, target: PartialGroup, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        for x in source.elements:
            if x not in self.mapping:
                raise InputError("homomorphism map misses an element")
            if self.mapping[x] not in target._index:
                raise InputError("homomorphism image escapes the target")

    def verify(self, max_len: int = 3):
        """Check domain words map into domain words with matching products.

        Returns (True, None) or (False, (reason, word)) for the first bad
        word in sweep order: shortest first, then lexicographic in carrier
        order.
        """
        src, tgt, m = self.source, self.target, self.mapping
        bad = None
        if m[src.identity] != tgt.identity:
            bad = ("identity", ())
        elif src.full_domain and tgt.full_domain:
            # Both carriers are groups: every word is in the domain and
            # multiplies by folding pairs.  A map then respects every word
            # iff it respects every pair (induct on the length), and a
            # length-1 word can never fail, so the first bad word of the
            # sweep is the first bad pair in lexicographic order.
            bad = next((("product", (x, y))
                        for x in src.elements for y in src.elements
                        if m[src.binary(x, y)] != tgt.binary(m[x], m[y])), None)
        else:
            _cap_words(len(src.elements), max_len, "homomorphism word sweep")
            for w, state in src.walk_domain(max_len):
                image = tgt.walk(m[x] for x in w)
                if not tgt.walk_in_domain(image):
                    bad = ("domain", w)
                    break
                if m[src.walk_product(state)] != tgt.walk_product(image):
                    bad = ("product", w)
                    break
        return bad is None, bad

    def __repr__(self):
        return f"PGHom({len(self.source.elements)} -> {len(self.target.elements)})"
