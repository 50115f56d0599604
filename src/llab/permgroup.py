"""Permutation groups at desk scale, with hard determinism guarantees.

Conventions that everything downstream leans on:

* a permutation is a tuple of 0-based images; ``(a*b)[i] == b[a[i]]``,
  i.e. products apply the left factor first;
* ``x ** g`` style conjugation is right conjugation: ``x^g = g^-1 * x * g``;
* the elements of a group are its permutations sorted lexicographically,
  so the identity always has ordinal 0;
* a subgroup is a bitmask over the parent group's ordinals;
* subgroup collections are reported sorted by ``(-order, mask)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .caps import current as current_caps
from .errors import InputError, CapExceeded, PropertyViolation

Perm = tuple[int, ...]


# permutation helpers ------------------------------------------------------

def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Apply a, then b."""
    return tuple(b[i] for i in a)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def pconj(x: Perm, g: Perm) -> Perm:
    """x^g = g^-1 x g."""
    return pmul(pmul(pinv(g), x), g)


def perm_order(a: Perm) -> int:
    return reduce(math.lcm, (len(c) for c in perm_cycles(a)), 1)


def perm_cycles(a: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its smallest point, sorted."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = a[i]
        cycles.append(tuple(cyc))
    return cycles


def cycles_str(a: Perm) -> str:
    """Cycle notation on 1-based points; identity prints as ()."""
    cycles = perm_cycles(a)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)


def perm_from_cycles(degree: int, cycles: list[list[int]]) -> Perm:
    """Build a permutation from 1-based cycles."""
    images = list(range(degree))
    for cyc in cycles:
        pts = [p - 1 for p in cyc]
        if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise InputError(f"bad cycle {cyc} for degree {degree}")
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def _check_perm(degree: int, images) -> Perm:
    p = tuple(images)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InputError(f"not a permutation of {degree} points: {images!r}")
    return p


# bitmask helpers ----------------------------------------------------------

def mask_members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(ordinals) -> int:
    m = 0
    for i in ordinals:
        m |= 1 << i
    return m


# the group ----------------------------------------------------------------

_MUL_CACHE_MAX_ORDER = 1024


class FiniteGroup:
    """A concrete finite permutation group with canonically ordered elements."""

    def __init__(self, perms, degree: int, generators=None):
        elements = tuple(sorted(set(perms)))
        if not elements:
            raise InputError("a group needs at least the identity")
        if elements[0] != identity_perm(degree):
            raise InputError("element set does not contain the identity")
        self.degree = degree
        self.elements = elements
        self.order = len(elements)
        self._index = {p: i for i, p in enumerate(elements)}
        self._inv = tuple(self._index[pinv(p)] for p in elements)
        self._mul_rows: dict[int, tuple[int, ...]] = {}
        if generators is None:
            self.generators = self._greedy_generators()
        else:
            self.generators = tuple(sorted(self._index[g] if isinstance(g, tuple) else g
                                           for g in generators))
        self._memo: dict = {}

    # low-level arithmetic

    def mult(self, i: int, j: int) -> int:
        if self.order <= _MUL_CACHE_MAX_ORDER:
            row = self._mul_rows.get(i)
            if row is None:
                a = self.elements[i]
                row = tuple(self._index[pmul(a, b)] for b in self.elements)
                self._mul_rows[i] = row
            return row[j]
        return self._index[pmul(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return self.mult(self.mult(self._inv[g], x), g)

    def word(self, ordinals) -> int:
        out = 0
        for i in ordinals:
            out = self.mult(out, i)
        return out

    def element_order(self, i: int) -> int:
        return perm_order(self.elements[i])

    def is_p_element(self, i: int, p: int) -> bool:
        n = perm_order(self.elements[i])
        while n % p == 0:
            n //= p
        return n == 1

    def index_of(self, perm: Perm) -> int:
        try:
            return self._index[perm]
        except KeyError:
            raise InputError(f"{perm!r} is not an element of this group")

    # subgroup plumbing

    def subgroup(self, mask: int) -> "Subgroup":
        return Subgroup(self, mask)

    def subgroup_of(self, ordinals) -> "Subgroup":
        """Closure of the given ordinals."""
        return Subgroup(self, self.close_mask(mask_of(ordinals)))

    @property
    def trivial(self) -> "Subgroup":
        return Subgroup(self, 1)

    @property
    def top(self) -> "Subgroup":
        return Subgroup(self, (1 << self.order) - 1)

    def close_mask(self, seed: int) -> int:
        """Smallest subgroup mask containing the seed ordinals."""
        gens = mask_members(seed)
        mask = 1
        frontier = [0]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    k = self.mult(h, g)
                    bit = 1 << k
                    if not mask & bit:
                        mask |= bit
                        nxt.append(k)
            frontier = nxt
        return mask

    def is_closed_mask(self, mask: int) -> bool:
        members = mask_members(mask)
        if not mask & 1:
            return False
        for a in members:
            for b in members:
                if not mask >> self.mult(a, b) & 1:
                    return False
        return True

    def _greedy_generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        mask = 1
        for i in range(self.order):
            if not mask >> i & 1:
                gens.append(i)
                mask = self.close_mask(mask_of(gens))
                if mask == (1 << self.order) - 1:
                    break
        return tuple(gens)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def group_from_generators(degree: int, generators, name: str = "") -> FiniteGroup:
    """BFS closure of a generating set of permutations."""
    cap = current_caps().group_order
    gens = [_check_perm(degree, g) for g in generators]
    ident = identity_perm(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = pmul(a, g)
                if b not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("group order", cap)
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    grp = FiniteGroup(seen, degree)
    grp.generators = tuple(sorted(grp.index_of(g) for g in gens)) or (0,)
    return grp


def regular_group(items, mult, inv, identity) -> tuple[FiniteGroup, dict, dict]:
    """Realize an abstract group through its right-regular representation.

    items must be deterministically ordered. Returns (group, to_ordinal,
    from_ordinal) where to_ordinal maps an item to its ordinal.
    """
    items = list(items)
    pos = {x: i for i, x in enumerate(items)}
    if len(pos) != len(items):
        raise InputError("duplicate items")
    perms = {}
    for x in items:
        perms[x] = tuple(pos[mult(a, x)] for a in items)
    if len(set(perms.values())) != len(items):
        raise InputError("multiplication table is not a group table")
    grp = FiniteGroup(perms.values(), len(items))
    to_ordinal = {x: grp.index_of(perms[x]) for x in items}
    from_ordinal = {i: x for x, i in to_ordinal.items()}
    if to_ordinal[identity] != 0:
        raise PropertyViolation("identity did not land at ordinal 0")
    for x in items:
        if grp.inv(to_ordinal[x]) != to_ordinal[inv(x)]:
            raise PropertyViolation("inversion mismatch in regular representation", x)
    return grp, to_ordinal, from_ordinal


# subgroups ----------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    mask: int

    def __post_init__(self):
        if not self.mask & 1:
            raise InputError("subgroup mask must contain the identity (bit 0)")

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[int]:
        return mask_members(self.mask)

    def key(self) -> tuple[int, int]:
        """Canonical sort key: larger subgroups first, ties by mask."""
        return (-self.order, self.mask)

    def contains(self, ordinal: int) -> bool:
        return bool(self.mask >> ordinal & 1)

    def le(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    def __contains__(self, ordinal: int) -> bool:
        return self.contains(ordinal)

    def generators(self) -> tuple[int, ...]:
        memo = self.group._memo.setdefault("gens", {})
        got = memo.get(self.mask)
        if got is None:
            G = self.group
            gens: list[int] = []
            mask = 1
            for i in self.members():
                if not mask >> i & 1:
                    gens.append(i)
                    mask = G.close_mask(mask_of(gens))
                    if mask == self.mask:
                        break
            if mask != self.mask:
                raise InputError("mask is not multiplicatively closed")
            got = tuple(gens) or (0,)
            memo[self.mask] = got
        return got

    def conjugate(self, g: int) -> "Subgroup":
        G = self.group
        return Subgroup(G, mask_of(G.conj(x, g) for x in self.members()))

    def join(self, other: "Subgroup") -> "Subgroup":
        gens = mask_of(self.generators()) | mask_of(other.generators())
        return Subgroup(self.group, self.group.close_mask(gens))

    def meet(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.group, self.mask & other.mask)

    def normalizer(self, within: "Subgroup | None" = None) -> "Subgroup":
        """N(self) inside `within` (default: the whole group)."""
        G = self.group
        scope = within.mask if within is not None else (1 << G.order) - 1
        memo = G._memo.setdefault("normalizer", {})
        key = (self.mask, scope)
        got = memo.get(key)
        if got is None:
            gens = self.generators()
            out = 0
            for g in mask_members(scope):
                if all(self.mask >> G.conj(x, g) & 1 for x in gens):
                    out |= 1 << g
            got = out
            memo[key] = got
        return Subgroup(G, got)

    def centralizer(self, within: "Subgroup | None" = None) -> "Subgroup":
        G = self.group
        scope = within.mask if within is not None else (1 << G.order) - 1
        memo = G._memo.setdefault("centralizer", {})
        key = (self.mask, scope)
        got = memo.get(key)
        if got is None:
            gens = self.generators()
            out = 0
            for g in mask_members(scope):
                if all(G.conj(x, g) == x for x in gens):
                    out |= 1 << g
            got = out
            memo[key] = got
        return Subgroup(G, got)

    def center(self) -> "Subgroup":
        return self.centralizer(within=self)

    def is_normal_in(self, other: "Subgroup") -> bool:
        if not self.le(other):
            return False
        return all(self.mask >> self.group.conj(x, g) & 1
                   for g in other.generators() for x in self.generators())

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def as_group(self) -> FiniteGroup:
        """This subgroup as a standalone FiniteGroup on the same points."""
        G = self.group
        return FiniteGroup((G.elements[i] for i in self.members()), G.degree)

    def gens_str(self) -> str:
        return ", ".join(cycles_str(self.group.elements[i]) for i in self.generators())

    def __repr__(self):
        return f"Subgroup(order={self.order}, gens=[{self.gens_str()}])"


def subgroups_below(H: Subgroup) -> list[Subgroup]:
    """Every subgroup contained in H, canonically ordered.

    BFS over joins with cyclic subgroups; double-coset filtering keeps the
    closure count near the subgroup count.
    """
    G = H.group
    memo = G._memo.setdefault("subs_below", {})
    got = memo.get(H.mask)
    if got is None:
        cap = current_caps().subgroup_count
        members = H.members()
        known: dict[int, tuple[int, ...]] = {1: (0,)}
        queue = [1]
        while queue:
            mask = queue.pop()
            gens = known[mask]
            tried = mask
            for g in members:
                if tried >> g & 1:
                    continue
                new_mask = G.close_mask(mask | 1 << g)
                if new_mask not in known:
                    if len(known) >= cap:
                        raise CapExceeded("subgroup count", cap)
                    known[new_mask] = gens + (g,) if mask != 1 else (g,)
                    queue.append(new_mask)
                # anything in the double coset H g H generates the same join
                for a in mask_members(mask):
                    xa = G.mult(a, g)
                    for b in mask_members(mask):
                        tried |= 1 << G.mult(xa, b)
        got = tuple(sorted(known, key=lambda m: (-m.bit_count(), m)))
        memo[H.mask] = got
    return [Subgroup(G, m) for m in got]


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    return subgroups_below(G.top)


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    gens = G.generators
    out = []
    for H in all_subgroups(G):
        if all(H.conjugate(g).mask == H.mask for g in gens):
            out.append(H)
    return out


# primes -------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin to the bases above decides primality exactly below this bound
_MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InputError where it would not be exact."""
    if n >= _MR_LIMIT:
        raise InputError(f"{n} is too large for the exact prime test (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# named constructions ------------------------------------------------------

def sylow_p(G: FiniteGroup, p: int) -> Subgroup:
    """The canonical-first Sylow p-subgroup, grown through normalizers."""
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    target = 1
    n = G.order
    while n % p == 0:
        n //= p
        target *= p
    P = G.trivial
    while P.order < target:
        N = P.normalizer()
        grown = False
        for g in N.members():
            if not P.contains(g) and G.is_p_element(g, p):
                P = Subgroup(G, G.close_mask(P.mask | 1 << g))
                grown = True
                break
        if not grown:
            raise PropertyViolation("Sylow growth stalled below the p-part", P)
        if not P.is_p_group(p):
            raise PropertyViolation("Sylow growth left the p-world", P)
    return P


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G): the largest normal p-subgroup (intersection of Sylow conjugates)."""
    S = sylow_p(G, p)
    mask = S.mask
    for g in range(G.order):
        if mask == 1:
            break
        mask &= mask_of(G.conj(x, g) for x in mask_members(S.mask))
    return Subgroup(G, mask)


def p_prime_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_{p'}(G): the largest normal subgroup of order prime to p."""
    best = G.trivial
    for H in normal_subgroups(G):
        if math.gcd(H.order, p) == 1 and H.order > best.order:
            best = H
    # the p'-core is unique: every other normal p'-subgroup sits inside it
    for H in normal_subgroups(G):
        if math.gcd(H.order, p) == 1 and not H.le(best):
            raise PropertyViolation("two incomparable maximal normal p'-subgroups",
                                    (best, H))
    return best


def is_characteristic_p(G: FiniteGroup, p: int) -> bool:
    """True when the centralizer of O_p(G) sits inside O_p(G)."""
    core = p_core(G, p)
    return core.centralizer().le(core)


def core_commutator_slice(G: FiniteGroup, p: int, V: Subgroup) -> Subgroup:
    """{x centralizing V with [O_p(G), x] <= V}, as a subgroup.

    For groups of characteristic p this is a normal p-subgroup; callers that
    rely on that assert it themselves.
    """
    core = p_core(G, p)
    members = []
    for x in V.centralizer().members():
        xi = G.inv(x)
        ok = True
        for u in core.members():
            comm = G.mult(G.mult(G.inv(u), xi), G.mult(u, x))
            if not V.contains(comm):
                ok = False
                break
        if ok:
            members.append(x)
    mask = mask_of(members)
    if not G.is_closed_mask(mask):
        raise PropertyViolation("commutator slice is not a subgroup", mask)
    return Subgroup(G, mask)
