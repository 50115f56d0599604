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

from . import caps as _caps
from .errors import CapExceeded, DomainError, InputError, PropertyViolation

__all__ = [
    "PartialGroup",
    "PartialSubgroup",
    "PGHom",
    "AxiomViolation",
    "AxiomReport",
    "check_axioms",
    "generated_subgroup",
    "normal_closure",
    "is_partial_normal",
    "all_partial_normal_subgroups",
    "coset_partition",
]


class PartialGroup:
    """Base carrier. Subclasses fill elements/identity/inv/in_domain/binary.

    A subclass with a cheaper summary of a word than the word itself
    replaces the four `walk_*` hooks.
    """

    elements: tuple = ()
    identity = None
    full_domain = False

    def __init__(self):
        self._index = {x: i for i, x in enumerate(self.elements)}
        # member sets of all_partial_normal_subgroups, filled on first use
        self._normal_lattice: tuple | None = None

    def inv(self, x):
        raise NotImplementedError

    def in_domain(self, word) -> bool:
        """Decide membership of a word (tuple of element keys) in D."""
        raise NotImplementedError

    def binary(self, x, y):
        """Product of the domain word (x, y)."""
        raise NotImplementedError

    # -- word walker ---------------------------------------------------------
    #
    # Every bounded word sweep extends words one letter at a time and keeps a
    # state per prefix.  Letters are carrier elements; `walk_product` is
    # asked only of states that `walk_in_domain` accepts.  Here the state is
    # the word itself, answered by `in_domain` and `product`.

    def walk_start(self):
        """State of the empty word."""
        return ()

    def walk_step(self, state, x):
        """State of the word extended by the letter x."""
        return state + (x,)

    def walk_in_domain(self, state) -> bool:
        """Is the walked word in D?"""
        return self.in_domain(state)

    def walk_product(self, state):
        """Product of a walked domain word."""
        return self.product(state)

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

    def domain_words(self, max_len: int):
        """Yield all domain words of length 1..max_len, in `walk_domain` order."""
        for w, _ in self.walk_domain(max_len):
            yield w

    # -- derived operations ------------------------------------------------

    def index_of(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise InputError(f"{x!r} is not an element of this partial group")

    def sort_key(self, x) -> int:
        return self.index_of(x)

    def member_mask(self, xs) -> int:
        m = 0
        for x in xs:
            m |= 1 << self.index_of(x)
        return m

    def product(self, word):
        """Left fold of the partial product over a domain word.

        Raises DomainError naming the first failing prefix when the word is
        not in D.  The fold is valid for domain words: axiom (3) lets any
        prefix be contracted to its product.
        """
        word = tuple(word)
        if not word:
            return self.identity
        for k in range(1, len(word) + 1):
            if not self.in_domain(word[:k]):
                raise DomainError(word, k)
        acc = word[0]
        for x in word[1:]:
            acc = self.binary(acc, x)
        return acc

    def conj(self, x, g):
        """x**g = g**-1 * x * g, or None when that word is not in D.

        One domain test on the whole word; axiom (3) then lets the word be
        folded pair by pair.
        """
        gi = self.inv(g)
        if not self.in_domain((gi, x, g)):
            return None
        return self.binary(self.binary(gi, x), g)


# -- axiom checking ----------------------------------------------------------


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
    every length at once.

    Other carriers are swept with their word walker, level by level in
    `itertools.product` order: each word extends its prefix's state by one
    letter, and every one of the n + ... + n**max_len words is decided, none
    skipped under a prefix outside D.  The prefix, suffix and contraction
    tests read the kept flags of shorter words, and w**-1 * w is one walk
    from the kept state of w**-1.
    """
    if max_len < 2:
        raise InputError("axiom check needs max_len >= 2")
    if pg.full_domain:
        return _check_axioms_table(pg)
    return _check_axioms_bounded(pg, max_len)


def _check_axioms_table(pg: PartialGroup) -> AxiomReport:
    els = pg.elements
    n = len(els)
    limit = _caps.current().axiom_table
    if n**3 > limit:
        raise CapExceeded("axiom table check", limit)
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
        xi = pg.inv(x)
        if pg.inv(xi) != x:
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


def _cap_words(n: int, max_len: int, what: str) -> None:
    """Refuse a sweep over all n + n**2 + ... + n**max_len words past axiom_words."""
    limit = _caps.current().axiom_words
    if sum(n**k for k in range(1, max_len + 1)) > limit:
        raise CapExceeded(what, limit)


def _check_axioms_bounded(pg: PartialGroup, max_len: int) -> AxiomReport:
    els = pg.elements
    _cap_words(len(els), max_len, "axiom word enumeration")
    bad = []

    def record(axiom, word, detail):
        if len(bad) < 200:
            bad.append(AxiomViolation(axiom, word, detail))

    start, empty_ok = pg.walk_start(), pg.in_domain(())
    if not empty_ok:
        record("1", (), "empty word not in domain")

    # word -> (walk state, in D) for every word shorter than max_len and every
    # pair over the carrier: the prefix, suffix and contraction tests read
    # these flags.  Words of the top length are decided as they are walked
    # and not kept.  A word missing here has a letter outside the carrier (a
    # product or inverse escaped it), so it is not in D.
    seen = {(): (start, empty_ok)}

    def in_d(word):
        got = seen.get(word)
        return got is not None and got[1]

    prod = {(): pg.identity}
    checked = 0
    level = [((), start)]
    for k in range(1, max_len + 1):
        keep = k < max_len or k == 2
        nxt = []
        # prefixes in itertools.product order, each extended by every letter
        for pre, state in level:
            for x in els:
                word = pre + (x,)
                st = pg.walk_step(state, x)
                here = pg.walk_in_domain(st)
                checked += 1
                if keep:
                    seen[word] = (st, here)
                    nxt.append((word, st))
                if k == 1:
                    if not here:
                        record("1", word, "length-1 word not in domain")
                    else:
                        prod[word] = x
                    continue
                if here and not seen[pre][1]:
                    record("1", word, "prefix missing from domain")
                if here and not seen[word[1:]][1]:
                    record("1", word, "suffix missing from domain")
                if here and pre in prod:
                    # axiom (3) with the prefix contracted to its product
                    step = (prod[pre], x)
                    if not in_d(step):
                        record("3", word, "contracted prefix pair leaves domain")
                    else:
                        try:
                            prod[word] = pg.binary(*step)
                        except Exception as exc:  # corrupted tables
                            record("3", word, f"binary product failed: {exc}")
        level = nxt

    for word in prod:
        if not word:
            continue
        value = prod[word]
        if value not in pg._index:
            record("1", word, "product escapes the carrier")
            continue
        k = len(word)
        # axiom (3): contract every contiguous segment; the contracted word
        # is shorter than the word, so its flag is kept
        for i in range(k):
            for j in range(i + 2, k + 1):
                seg = word[i:j]
                if seg not in prod:
                    continue
                contracted = word[:i] + (prod[seg],) + word[j:]
                if not in_d(contracted):
                    record("3", word, f"contraction of [{i}:{j}] leaves domain")
                elif contracted in prod and prod[contracted] != value:
                    record("3", word, f"contraction of [{i}:{j}] changes product")
        # axiom (4): w**-1 * w multiplies to the identity
        try:
            wi = tuple(pg.inv(x) for x in reversed(word))
        except Exception as exc:
            record("4", word, f"inversion failed: {exc}")
            continue
        # one walk of w**-1 * w: the kept state of w**-1 minus its last
        # letter, then that letter and the letters of w
        got = seen.get(wi[:-1])
        inside = got is not None and wi[-1] in pg._index
        if inside:
            st = pg.walk_step(got[0], wi[-1])
            for x in word:
                st = pg.walk_step(st, x)
            inside = pg.walk_in_domain(st)
        if not inside:
            record("4", word, "w**-1 * w not in domain")
        else:
            try:
                if pg.walk_product(st) != pg.identity:
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


# -- partial subgroups -------------------------------------------------------


@dataclass(frozen=True)
class PartialSubgroup:
    pg: PartialGroup
    members: frozenset

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(sorted(self.members, key=self.pg.sort_key))

    @property
    def mask(self) -> int:
        return self.pg.member_mask(self.members)

    def key(self):
        return (-self.order, self.mask)

    def __le__(self, other) -> bool:
        return self.members <= other.members

    def __repr__(self):
        return f"PartialSubgroup(order={self.order})"


def generated_subgroup(pg: PartialGroup, xs) -> PartialSubgroup:
    """Least partial subgroup containing xs.

    Closure under inverses and binary domain products suffices: axiom (3)
    contracts any domain word to a fold of binary products whose
    intermediate pairs stay in D.
    """
    cur = set(xs) | {pg.identity}
    for x in cur:
        if x not in pg._index:
            raise InputError(f"{x!r} is not an element of this partial group")
    # semi-naive rounds: a pair of old elements was tried in an earlier round
    old, fresh = set(), cur
    while fresh:
        new = {pg.inv(x) for x in fresh} - cur
        for x in fresh:
            for y in cur:
                if pg.in_domain((x, y)):
                    z = pg.binary(x, y)
                    if z not in cur:
                        new.add(z)
            for y in old:
                if pg.in_domain((y, x)):
                    z = pg.binary(y, x)
                    if z not in cur:
                        new.add(z)
        old, fresh, cur = cur, new, cur | new
    return PartialSubgroup(pg, frozenset(cur))


def _conjugates_outside(pg: PartialGroup, members):
    """Yield every defined conjugate x**g of a member x that is not a member.

    The one conjugation sweep of the partial-normal layer: g runs over the
    carrier, x over the members.
    """
    for g in pg.elements:
        for x in members:
            z = pg.conj(x, g)
            if z is not None and z not in members:
                yield z


def is_partial_normal(pg: PartialGroup, sub: PartialSubgroup) -> bool:
    """True iff every defined conjugate of a member lands back in it."""
    for _ in _conjugates_outside(pg, sub.members):
        return False
    return True


def normal_closure(pg: PartialGroup, xs) -> PartialSubgroup:
    """Least partial normal subgroup containing xs."""
    cur = generated_subgroup(pg, xs).members
    while True:
        extra = set(_conjugates_outside(pg, cur))
        if not extra:
            return PartialSubgroup(pg, frozenset(cur))
        cur = generated_subgroup(pg, cur | extra).members


def all_partial_normal_subgroups(pg: PartialGroup) -> list:
    """All partial normal subgroups, largest first, deterministic order.

    A partial group's elements and domain are fixed at construction, so the
    lattice is enumerated once per carrier and kept there as member
    frozensets (a PartialSubgroup points back at the carrier and would make
    a reference cycle); each call returns a fresh list.
    """
    if pg._normal_lattice is None:
        pg._normal_lattice = _enumerate_partial_normals(pg)
    return [PartialSubgroup(pg, m) for m in pg._normal_lattice]


def _enumerate_partial_normals(pg: PartialGroup) -> tuple:
    """Join-lattice search over normal closures of single elements; capped."""
    cap = _caps.current().partial_normal
    if len(pg.elements) > cap:
        raise CapExceeded("partial-normal enumeration", cap)
    atoms = {}
    for x in pg.elements:
        if x == pg.identity:
            continue
        atoms.setdefault(normal_closure(pg, [x]).members, None)
    atom_sets = sorted(atoms, key=lambda m: (len(m), pg.member_mask(m)))

    found = {frozenset({pg.identity})}
    frontier = [frozenset({pg.identity})]
    while frontier:
        nxt = []
        for base in frontier:
            for a in atom_sets:
                if a <= base:
                    continue
                joined = normal_closure(pg, base | a).members
                if joined not in found:
                    found.add(joined)
                    nxt.append(joined)
                    if len(found) > cap:
                        raise CapExceeded("partial-normal enumeration", cap)
        frontier = nxt
    return tuple(sorted(found, key=lambda m: (-len(m), pg.member_mask(m))))


# -- cosets -------------------------------------------------------------------


def right_coset(pg: PartialGroup, sub: PartialSubgroup, g) -> frozenset:
    out = {g}
    for x in sub.members:
        if pg.in_domain((x, g)):
            out.add(pg.binary(x, g))
    return frozenset(out)


def coset_partition(pg: PartialGroup, sub: PartialSubgroup) -> tuple:
    """Maximal right cosets of a partial normal subgroup, by least member.

    The inclusion-maximal right cosets are checked to partition and to
    cover the carrier; a failure aborts with a witness element.
    """
    if not is_partial_normal(pg, sub):
        raise InputError("quotient requires a partial normal subgroup")
    cosets = {right_coset(pg, sub, g) for g in pg.elements}
    maximal = [c for c in cosets if not any(c < d for d in cosets)]
    seen = {}
    for c in maximal:
        for x in c:
            if x in seen and seen[x] is not c:
                raise PropertyViolation(
                    "maximal cosets fail to partition the carrier", witness=x
                )
            seen[x] = c
    missing = [x for x in pg.elements if x not in seen]
    if missing:
        raise PropertyViolation(
            "maximal cosets fail to cover the carrier", witness=missing[0]
        )
    maximal.sort(key=lambda c: min(pg.sort_key(x) for x in c))
    return tuple(maximal)


# -- homomorphisms -----------------------------------------------------------


class PGHom:
    """Element-wise map between partial groups, checked on bounded words."""

    def __init__(self, source: PartialGroup, target: PartialGroup, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        # verify's answers by max_len; None keys the length-free pair test
        self._verified: dict = {}
        for x in source.elements:
            if x not in self.mapping:
                raise InputError("homomorphism map misses an element")
            if self.mapping[x] not in target._index:
                raise InputError("homomorphism image escapes the target")

    def apply_word(self, word) -> tuple:
        return tuple(self.mapping[x] for x in word)

    def verify(self, max_len: int = 3):
        """Check domain words map into domain words with matching products.

        Returns (True, None) or (False, (reason, word)) for the first bad
        word in sweep order: shortest first, then lexicographic in carrier
        order.
        """
        src, tgt, m = self.source, self.target, self.mapping
        # the pair test below answers for every length at once
        key = None if src.full_domain and tgt.full_domain else max_len
        if key in self._verified:
            return self._verified[key]
        _cap_words(len(src.elements), max_len, "homomorphism word sweep")
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
            for w, state in src.walk_domain(max_len):
                image = tgt.walk(self.apply_word(w))
                if not tgt.walk_in_domain(image):
                    bad = ("domain", w)
                    break
                if m[src.walk_product(state)] != tgt.walk_product(image):
                    bad = ("product", w)
                    break
        self._verified[key] = (bad is None, bad)
        return self._verified[key]

    def _require_hom(self, max_len: int = 3):
        ok, witness = self.verify(max_len)
        if not ok:
            raise InputError(f"not a partial group homomorphism: {witness}")

    def kernel(self) -> PartialSubgroup:
        self._require_hom()
        e = self.target.identity
        ker = PartialSubgroup(
            self.source,
            frozenset(x for x in self.source.elements if self.mapping[x] == e),
        )
        if not is_partial_normal(self.source, ker):
            raise PropertyViolation("kernel is not partial normal", witness=ker)
        return ker

    def is_projection(self, max_len: int = 3) -> bool:
        """True iff the induced map on word domains is surjective.

        The homomorphism check and the lifting test cover the same words,
        those of length <= max_len.
        """
        _cap_words(len(self.target.elements), max_len, "projection word sweep")
        self._require_hom(max_len)
        if set(self.mapping.values()) != set(self.target.elements):
            return False
        if self.source.full_domain:
            # every word over the source is in its domain, so a target word
            # lifts letter by letter through any preimages
            return True
        fibers = {}
        for x, fx in self.mapping.items():
            fibers.setdefault(fx, []).append(x)

        src, tgt = self.source, self.target

        def liftable(word) -> bool:
            def extend(state, rest):
                if not rest:
                    return True
                for x in fibers[rest[0]]:
                    st = src.walk_step(state, x)
                    if src.walk_in_domain(st) and extend(st, rest[1:]):
                        return True
                return False

            return extend(src.walk_start(), tuple(word))

        return all(liftable(w) for w in tgt.domain_words(max_len))

    def __repr__(self):
        return f"PGHom({len(self.source.elements)} -> {len(self.target.elements)})"
