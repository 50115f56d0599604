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

Element keys are opaque hashables (group ordinals, coset blocks, or class
keys from expansions); all ordering goes through the carrier's canonical
element tuple, never through raw keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import caps as _caps
from .errors import CapExceeded, DomainError, InputError, PropertyViolation

__all__ = [
    "PartialGroup",
    "GroupPartial",
    "TablePartial",
    "PartialSubgroup",
    "PGHom",
    "AxiomViolation",
    "AxiomReport",
    "check_axioms",
    "generated_subgroup",
    "normal_closure",
    "is_partial_normal",
    "all_partial_normal_subgroups",
    "CosetPartition",
    "coset_partition",
]


class PartialGroup:
    """Base carrier. Subclasses fill elements/identity/inv/in_domain/binary."""

    elements: tuple = ()
    identity = None
    full_domain = False

    def __init__(self):
        self._index = {x: i for i, x in enumerate(self.elements)}
        # member sets of all_partial_normal_subgroups, filled on first use
        self._normal_lattice: tuple | None = None

    def _init_index(self):
        # for subclasses that assign elements after super().__init__()
        self._index = {x: i for i, x in enumerate(self.elements)}

    def inv(self, x):
        raise NotImplementedError

    def in_domain(self, word) -> bool:
        """Decide membership of a word (tuple of element keys) in D."""
        raise NotImplementedError

    def binary(self, x, y):
        """Product of the domain word (x, y)."""
        raise NotImplementedError

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

    def conj_defined(self, x, g) -> bool:
        return self.in_domain((self.inv(g), x, g))

    def conj(self, x, g):
        """x**g = g**-1 * x * g; requires the word to be in D."""
        return self.product((self.inv(g), x, g))

    def domain_words(self, max_len: int):
        """Yield all domain words of length 1..max_len, shortest first."""
        frontier = []
        for x in self.elements:
            w = (x,)
            if self.in_domain(w):
                frontier.append(w)
                yield w
        for _ in range(max_len - 1):
            nxt = []
            for w in frontier:
                for x in self.elements:
                    u = w + (x,)
                    if self.in_domain(u):
                        nxt.append(u)
                        yield u
            frontier = nxt

    def _quotient(self, normal, blocks, block_of):
        # hook: locality-backed carriers build a structured quotient
        return QuotientPartial(self, blocks, block_of)


class GroupPartial(PartialGroup):
    """A finite group viewed as a partial group with D = all words."""

    full_domain = True

    def __init__(self, group):
        self.group = group
        self.elements = tuple(range(group.order))
        self.identity = 0
        super().__init__()

    def inv(self, x):
        return self.group.inv(x)

    def in_domain(self, word) -> bool:
        return all(x in self._index for x in word)

    def binary(self, x, y):
        return self.group.mult(x, y)

    def __repr__(self):
        return f"GroupPartial(order={self.group.order})"


class TablePartial(PartialGroup):
    """Explicit finite product table; mainly a negative-control harness.

    `products` maps length-2 word tuples to results; D is the closure of
    those pairs plus whatever longer words fold through defined pairs, with
    membership decided by `domain` when given explicitly.
    """

    def __init__(self, elements, identity, inverses, products, domain=None):
        self.elements = tuple(elements)
        self.identity = identity
        self._inv = dict(inverses)
        self._products = dict(products)
        self._domain = None if domain is None else {tuple(w) for w in domain}
        super().__init__()

    def inv(self, x):
        return self._inv[x]

    def in_domain(self, word) -> bool:
        word = tuple(word)
        if any(x not in self._index for x in word):
            return False
        if len(word) <= 1:
            return True
        if self._domain is not None:
            return word in self._domain or len(word) > 2 and self._fold_ok(word)
        return self._fold_ok(word)

    def _fold_ok(self, word) -> bool:
        acc = word[0]
        for x in word[1:]:
            if (acc, x) not in self._products:
                return False
            acc = self._products[(acc, x)]
        return True

    def binary(self, x, y):
        try:
            return self._products[(x, y)]
        except KeyError:
            raise DomainError((x, y), 2)


class QuotientPartial(PartialGroup):
    """Generic quotient by a partial normal subgroup.

    Elements are block indices of the maximal-coset partition.  A block
    word is in D exactly when some entrywise lift is in the parent's D;
    the product is computed on a lift and checked to be lift-independent.
    """

    def __init__(self, parent, blocks, block_of):
        self.parent = parent
        self.blocks = tuple(blocks)
        self.block_of = dict(block_of)
        self.elements = tuple(range(len(self.blocks)))
        self.identity = self.block_of[parent.identity]
        self.full_domain = parent.full_domain
        super().__init__()
        self._inv_cache = {}
        self._dom_cache: dict = {}

    def inv(self, b):
        if b not in self._inv_cache:
            images = {self.block_of[self.parent.inv(x)] for x in self.blocks[b]}
            if len(images) != 1:
                raise PropertyViolation(
                    "coset inversion is not block-independent", witness=b
                )
            self._inv_cache[b] = images.pop()
        return self._inv_cache[b]

    def _lift_exists(self, word) -> bool:
        parent = self.parent

        def extend(prefix, rest):
            if not rest:
                return True
            for x in self.blocks[rest[0]]:
                u = prefix + (x,)
                if parent.in_domain(u) and extend(u, rest[1:]):
                    return True
            return False

        return extend((), tuple(word))

    def in_domain(self, word) -> bool:
        word = tuple(word)
        if any(b not in self._index for b in word):
            return False
        if len(word) <= 1:
            return True
        if self.full_domain:
            return True
        if word not in self._dom_cache:
            self._dom_cache[word] = self._lift_exists(word)
        return self._dom_cache[word]

    def binary(self, a, b):
        parent = self.parent
        result = None
        for x, y in itertools.product(self.blocks[a], self.blocks[b]):
            if not parent.in_domain((x, y)):
                continue
            blk = self.block_of[parent.binary(x, y)]
            if result is None:
                result = blk
            elif result != blk:
                raise PropertyViolation(
                    "coset product is not representative-independent",
                    witness=((a, b), (x, y)),
                )
        if result is None:
            raise DomainError((a, b), 2)
        return result


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


def _check_axioms_bounded(pg: PartialGroup, max_len: int) -> AxiomReport:
    els = pg.elements
    n = len(els)
    total = sum(n**k for k in range(1, max_len + 1))
    limit = _caps.current().axiom_words
    if total > limit:
        raise CapExceeded("axiom word enumeration", limit)
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
                # axiom (3) with the prefix contracted to its product
                step = (prod[pre], word[-1])
                if not pg.in_domain(step):
                    record("3", word, "contracted prefix pair leaves domain")
                else:
                    try:
                        prod[word] = pg.binary(*step)
                    except Exception as exc:  # corrupted tables
                        record("3", word, f"binary product failed: {exc}")

    for word in prod:
        if not word:
            continue
        value = prod[word]
        if value not in pg._index:
            record("1", word, "product escapes the carrier")
            continue
        k = len(word)
        # axiom (3): contract every contiguous segment
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
        # axiom (4): w**-1 * w multiplies to the identity
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
    while True:
        new = {pg.inv(x) for x in cur} - cur
        for x, y in itertools.product(cur, repeat=2):
            if pg.in_domain((x, y)):
                z = pg.binary(x, y)
                if z not in cur:
                    new.add(z)
        if not new:
            return PartialSubgroup(pg, frozenset(cur))
        cur |= new


def is_partial_normal(pg: PartialGroup, sub: PartialSubgroup) -> bool:
    """True iff every defined conjugate of a member lands back in it."""
    for g in pg.elements:
        gi = pg.inv(g)
        for x in sub.members:
            if pg.in_domain((gi, x, g)) and pg.product((gi, x, g)) not in sub.members:
                return False
    return True


def normal_closure(pg: PartialGroup, xs) -> PartialSubgroup:
    """Least partial normal subgroup containing xs."""
    cur = generated_subgroup(pg, xs).members
    while True:
        extra = set()
        for g in pg.elements:
            gi = pg.inv(g)
            for x in cur:
                if pg.in_domain((gi, x, g)):
                    z = pg.product((gi, x, g))
                    if z not in cur:
                        extra.add(z)
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


# -- cosets and quotients ----------------------------------------------------


@dataclass
class CosetPartition:
    blocks: tuple
    quotient: PartialGroup
    rho: "PGHom"


def right_coset(pg: PartialGroup, sub: PartialSubgroup, g) -> frozenset:
    out = {g}
    for x in sub.members:
        if pg.in_domain((x, g)):
            out.add(pg.binary(x, g))
    return frozenset(out)


def coset_partition(pg: PartialGroup, sub: PartialSubgroup) -> CosetPartition:
    """Maximal-coset partition by a partial normal subgroup, with quotient.

    The inclusion-maximal right cosets are checked to partition the
    carrier; the quotient product is built representative-wise and every
    representative-dependence aborts with a witness.
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
    block_of = {}
    for i, c in enumerate(maximal):
        for x in c:
            block_of[x] = i
    quotient = pg._quotient(sub, maximal, block_of)
    rho = PGHom(pg, quotient, {x: block_of[x] for x in pg.elements})
    return CosetPartition(tuple(maximal), quotient, rho)


# -- homomorphisms -----------------------------------------------------------


class PGHom:
    """Element-wise map between partial groups, checked on bounded words."""

    def __init__(self, source: PartialGroup, target: PartialGroup, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._verified = None
        for x in source.elements:
            if x not in self.mapping:
                raise InputError("homomorphism map misses an element")
            if self.mapping[x] not in target._index:
                raise InputError("homomorphism image escapes the target")

    def apply(self, x):
        return self.mapping[x]

    def apply_word(self, word) -> tuple:
        return tuple(self.mapping[x] for x in word)

    def verify(self, max_len: int = 3):
        """Check domain words map into domain words with matching products."""
        if self._verified is not None:
            return self._verified
        bad = None
        if self.mapping[self.source.identity] != self.target.identity:
            bad = ("identity", ())
        else:
            for w in self.source.domain_words(max_len):
                fw = self.apply_word(w)
                if not self.target.in_domain(fw):
                    bad = ("domain", w)
                    break
                if self.mapping[self.source.product(w)] != self.target.product(fw):
                    bad = ("product", w)
                    break
        self._verified = (bad is None, bad)
        return self._verified

    def _require_hom(self):
        ok, witness = self.verify()
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
        """True iff the induced map on word domains is surjective."""
        self._require_hom()
        if set(self.mapping.values()) != set(self.target.elements):
            return False
        fibers = {}
        for x, fx in self.mapping.items():
            fibers.setdefault(fx, []).append(x)

        src, tgt = self.source, self.target

        def liftable(word) -> bool:
            def extend(prefix, rest):
                if not rest:
                    return True
                for x in fibers[rest[0]]:
                    u = prefix + (x,)
                    if src.in_domain(u) and extend(u, rest[1:]):
                        return True
                return False

            return extend((), tuple(word))

        return all(liftable(w) for w in tgt.domain_words(max_len))

    def __repr__(self):
        return f"PGHom({len(self.source.elements)} -> {len(self.target.elements)})"
