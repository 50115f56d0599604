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
    # a C-level loop; itemgetter(*a) would return a scalar on degree 1
    return tuple(map(b.__getitem__, a))


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
    # bool is an int subclass, and 1.0 sorts like 1: only plain ints pass
    if (len(p) != degree or not all(type(x) is int for x in p)
            or sorted(p) != list(range(degree))):
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

def _conj_images(elements, inv, index, xs, g: int) -> tuple[int, ...]:
    gp, gi = elements[g], elements[inv[g]]
    # (g^-1 x g)[i] = g[x[g^-1[i]]]
    return tuple(index[tuple(map(gp.__getitem__, map(elements[x].__getitem__, gi)))]
                 for x in xs)


_MUL_CACHE_MAX_ORDER = 1024


class FiniteGroup:
    """A concrete finite permutation group with canonically ordered elements."""

    def __init__(self, perms, degree: int):
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
        """x^g = g^-1 x g, through the Cayley rows: for random access."""
        return self.mult(self.mult(self._inv[g], x), g)

    def conj_images(self, xs, g: int) -> tuple[int, ...]:
        """x^g for each ordinal x in xs, from permutation images.

        Builds no Cayley row, so a sweep over every g costs |xs| compositions
        per g instead of whole rows of the multiplication table.
        """
        return _conj_images(self.elements, self._inv, self._index, xs, g)

    def s_conjugation(self, s_mask: int) -> "SConjugation":
        """The one conjugation table of the subgroup with this mask."""
        memo = self._memo.setdefault("s_conj", {})
        got = memo.get(s_mask)
        if got is None:
            got = memo[s_mask] = SConjugation(self, s_mask)
        return got

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

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def group_from_generators(degree: int, generators) -> FiniteGroup:
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
    return FiniteGroup(seen, degree)


class SConjugation:
    """Conjugation of the members of one subgroup S by the group's elements.

    `images(g)` is the tuple of x^g for the members x of S in ascending
    order, and `s_g(g)` the mask of S_g = {x in S : x^g in S}.  A row is
    built from permutation images the first time its g is asked for and
    kept, so a sweep over the whole group costs |G|·|S| compositions once
    per (G, S) and reads no Cayley row.  The table keeps the group's element
    tuples, not the group, so the group's memo holds no cycle through it.
    """

    __slots__ = ("mask", "members", "_arith", "_images", "_s_g")

    def __init__(self, group: FiniteGroup, mask: int):
        self.mask = mask
        self.members = tuple(mask_members(mask))
        self._arith = (group.elements, group._inv, group._index)
        self._images: dict[int, tuple[int, ...]] = {}
        self._s_g: dict[int, int] = {}

    def images(self, g: int) -> tuple[int, ...]:
        got = self._images.get(g)
        if got is None:
            got = self._images[g] = _conj_images(*self._arith, self.members, g)
        return got

    def s_g(self, g: int) -> int:
        got = self._s_g.get(g)
        if got is None:
            mask = self.mask
            got = 0
            for x, y in zip(self.members, self.images(g)):
                if mask >> y & 1:
                    got |= 1 << x
            self._s_g[g] = got
        return got


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

    def _stabilizer(self, name: str, within: "Subgroup | None", fixes) -> "Subgroup":
        """The g in `within` (default: the whole group) with fixes(x, x^g) for
        every generator x of self, memoized per (mask, scope)."""
        G = self.group
        scope = within.mask if within is not None else (1 << G.order) - 1
        memo = G._memo.setdefault(name, {})
        key = (self.mask, scope)
        got = memo.get(key)
        if got is None:
            gens = self.generators()
            got = 0
            for g in mask_members(scope):
                if all(fixes(x, G.conj(x, g)) for x in gens):
                    got |= 1 << g
            memo[key] = got
        return Subgroup(G, got)

    def normalizer(self, within: "Subgroup | None" = None) -> "Subgroup":
        """N(self) inside `within` (default: the whole group)."""
        return self._stabilizer("normalizer", within, lambda x, y: self.mask >> y & 1)

    def centralizer(self, within: "Subgroup | None" = None) -> "Subgroup":
        """C(self) inside `within` (default: the whole group)."""
        return self._stabilizer("centralizer", within, lambda x, y: x == y)

    def center(self) -> "Subgroup":
        return self.centralizer(within=self)

    def is_normal_in(self, other: "Subgroup") -> bool:
        if not self.le(other):
            return False
        return all(self.mask >> self.group.conj(x, g) & 1
                   for g in other.generators() for x in self.generators())

    def is_p_group(self, p: int) -> bool:
        return _p_part(self.order, p) == self.order

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


def normal_subgroups(H: Subgroup) -> list[Subgroup]:
    """Every normal subgroup of H, canonically ordered."""
    return [K for K in subgroups_below(H) if K.is_normal_in(H)]


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

def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def sylow_p(H: Subgroup, p: int) -> Subgroup:
    """The canonical-first Sylow p-subgroup of H, grown through normalizers."""
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    G = H.group
    target = _p_part(H.order, p)
    P = G.trivial
    members = H.members()
    while P.order < target:
        # The first member of H, in ordinal order, that lies outside P, is a
        # p-element and normalizes P: the first eligible member of
        # P.normalizer(H), found without sweeping the rest of H.  Both guards
        # stay because H is caller input; neither fires on a true subgroup H:
        # - a p-subgroup P that is not Sylow in H has p | [N_H(P) : P], so a
        #   Sylow p-subgroup of N_H(P) containing P holds a p-element
        #   outside P, and the scan finds one;
        # - P is normal in P<g> and P<g>/P is a cyclic p-group, so P<g> is a
        #   p-group.
        gens = P.generators()
        for g in members:
            if (not P.mask >> g & 1 and G.is_p_element(g, p)
                    and all(P.mask >> y & 1 for y in G.conj_images(gens, g))):
                P = Subgroup(G, G.close_mask(P.mask | 1 << g))
                break
        else:
            raise PropertyViolation("Sylow growth stalled below the p-part", P)
        if not P.is_p_group(p):
            raise PropertyViolation("Sylow growth left the p-world", P)
    return P


def p_core(H: Subgroup, p: int) -> Subgroup:
    """O_p(H): the largest normal p-subgroup (intersection of Sylow conjugates)."""
    S = sylow_p(H, p)
    mask = S.mask
    for g in H.members():
        if mask == 1:
            break
        mask &= S.conjugate(g).mask
    return Subgroup(H.group, mask)


def p_prime_core(H: Subgroup, p: int) -> Subgroup:
    """O_{p'}(H): the largest normal subgroup of order prime to p."""
    # largest first, and the trivial subgroup is always among them
    coprime = [K for K in normal_subgroups(H) if math.gcd(K.order, p) == 1]
    best = coprime[0]
    # the p'-core is unique: every other normal p'-subgroup sits inside it
    for K in coprime[1:]:
        if not K.le(best):
            raise PropertyViolation("two incomparable maximal normal p'-subgroups",
                                    (best, K))
    return best


def is_characteristic_p(H: Subgroup, p: int) -> bool:
    """True when the centralizer of O_p(H) in H sits inside O_p(H)."""
    core = p_core(H, p)
    return core.centralizer(H).le(core)
