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
from itertools import repeat
from operator import itemgetter

from .caps import current as current_caps
from .errors import InputError, CapExceeded, PropertyViolation

Perm = tuple[int, ...]


# permutation helpers ------------------------------------------------------

def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Apply a, then b: the one composition of permutations (see also
    `_conj_images`, which composes many x with one g)."""
    # itemgetter(*a)(b) is (b[a[0]], b[a[1]], ...) in one C call; with one
    # index it would return the bare b[a[0]] and with none raise, so degrees
    # 0 and 1, whose only permutation is the identity, return b
    return itemgetter(*a)(b) if len(a) > 1 else b


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


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


def _check_perm(degree: int, images) -> Perm:
    p = tuple(images)
    # bool is an int subclass, and 1.0 sorts like 1: only plain ints pass
    if (len(p) != degree or not all(type(x) is int for x in p)
            or sorted(p) != list(range(degree))):
        raise InputError(f"not a permutation of {degree} points: {images!r}")
    return p


# bitmask helpers ----------------------------------------------------------

# the set bits of each byte value, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def mask_members(mask: int) -> list[int]:
    """The set bits of mask, ascending.

    A dense mask is read a byte at a time off a table: one Python step per
    byte and per member, where peeling the lowest bit costs three big-int
    operations per member.  A sparse one, under one member per 32 bits, is
    scanned with `str.find` over its binary digits read from the low end:
    one C-level search per member instead of a step per byte.  A find costs
    about two table steps and the digit string a fraction of one per byte,
    so the two cross between 1 member in 25 bits and 1 in 40 on masks of
    720 to 20 160 bits; short masks stay on the table.
    """
    if mask.bit_count() * 32 < mask.bit_length():
        digits = bin(mask)[:1:-1]  # bit i at position i, no "0b"
        out = []
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                out.append(base + i)
        base += 8
    return out


def mask_of(ordinals) -> int:
    m = 0
    for i in ordinals:
        m |= 1 << i
    return m


# the group ----------------------------------------------------------------

def _conj_images(elements, inv, index, xs, g: int) -> tuple[int, ...]:
    """The ordinal of x^g for each ordinal x in xs: the getter of g^-1 is
    built once, and each x^g = (g^-1·x)·g is then two C calls (see `pmul`)."""
    gp = elements[g]
    if len(gp) < 2:  # degree <= 1: g is the identity (a getter would return a scalar)
        return tuple(xs)
    pre = itemgetter(*elements[inv[g]])  # x -> g^-1·x
    # (g^-1 x g)[i] = g[x[g^-1[i]]]
    return tuple(index[itemgetter(*pre(elements[x]))(gp)] for x in xs)


_MUL_CACHE_MAX_ORDER = 1024


class _Inverses(dict):
    """Ordinal -> the ordinal of its inverse, filled the first time an
    ordinal is read: a group whose inverses are mostly unread never
    inverts its whole element list."""

    __slots__ = ("_elements", "_index")

    def __init__(self, elements, index):
        super().__init__()
        self._elements, self._index = elements, index

    def __missing__(self, i: int) -> int:
        # a negative i would index from the end and store a wrong entry
        if not 0 <= i < len(self._elements):
            raise InputError(f"{i!r} is not an element ordinal of this group")
        j = self[i] = self._index[pinv(self._elements[i])]
        self[j] = i
        return j


class FiniteGroup:
    """A concrete finite permutation group with canonically ordered elements.

    Built by `group_from_generators` at |G| compositions plus |gens|·[G:H]
    probes (see `_grow`); the inverse table `_inv` is indexed like a tuple
    and computes each inverse on first use.
    """

    def __init__(self, perms, degree: int, generators):
        """`perms` are the group's distinct elements and `generators`
        permutations that generate it; the generators are kept as ordinals."""
        elements = tuple(sorted(perms))
        if not elements:
            raise InputError("a group needs at least the identity")
        if elements[0] != identity_perm(degree):
            raise InputError("element set does not contain the identity")
        self.degree = degree
        self.elements = elements
        self.order = len(elements)
        self._index = {p: i for i, p in enumerate(elements)}
        self._inv = _Inverses(elements, self._index)
        self.generators = tuple(self.index_of(tuple(g)) for g in generators)
        self._mul_rows: dict[int, tuple[int, ...]] = {}
        self._memo: dict = {}

    # low-level arithmetic

    def mult(self, i: int, j: int) -> int:
        """i·j by ordinal.  Up to order 1024 through i's Cayley row, built
        the first time i is asked for with one lookup per entry along the
        generator tree (see `_tree`); above that by one `pmul`, a C-level
        getter call, and one index lookup."""
        if self.order <= _MUL_CACHE_MAX_ORDER:
            row = self._mul_rows.get(i)
            if row is None:
                row = self._mul_rows[i] = self._cayley_row(i)
            return row[j]
        return self._index[pmul(self.elements[i], self.elements[j])]

    def mult_row(self, i: int, js) -> tuple[int, ...]:
        """i·j for each ordinal j in js: up to order 1024 one C-level getter
        over i's Cayley row (built as in `mult`), above that by `mult`."""
        if self.order > _MUL_CACHE_MAX_ORDER:
            return tuple(self.mult(i, j) for j in js)
        row = self._mul_rows.get(i)
        if row is None:
            row = self._mul_rows[i] = self._cayley_row(i)
        # a getter of one index returns the bare entry (see `pmul`)
        return itemgetter(*js)(row) if len(js) > 1 else tuple(row[j] for j in js)

    def _tree(self) -> tuple[tuple, tuple[int, ...]]:
        """The group's generator tree, built once: |gens|·|G| compositions.

        A breadth-first tree from 1 in which every other element j is c·h
        for an element c one level up and a generator h.  It is kept as
        segments (h's right-multiplication column a -> a·h by ordinal, the
        tree positions of the parents c), one per level and generator in
        tree order, and `position`, each ordinal's place in that order.
        """
        got = self._memo.get("tree")
        if got is None:
            elements, index = self.elements, self._index
            columns = [tuple(index[pmul(a, elements[h])] for a in elements)
                       for h in self.generators]
            order = [0]
            seen = bytearray(self.order)
            seen[0] = 1
            segments = []
            start = 0
            while start < len(order):
                end = len(order)
                for column in columns:
                    parents = []
                    for k in range(start, end):
                        j = column[order[k]]
                        if not seen[j]:
                            seen[j] = 1
                            order.append(j)
                            parents.append(k)
                    if parents:
                        segments.append((column, parents))
                start = end
            if len(order) != self.order:
                raise InputError("the group's generators do not generate it")
            position = [0] * self.order
            for k, j in enumerate(order):
                position[j] = k
            got = self._memo["tree"] = (tuple(segments), tuple(position))
        return got

    def _cayley_row(self, i: int) -> tuple[int, ...]:
        """i·j for every ordinal j: i·1 = i and i·(c·h) = (i·c)·h, read off
        h's column, one segment of the tree at a time."""
        segments, position = self._tree()
        along = [i]  # i times the tree's elements, in tree order
        for column, parents in segments:
            along.extend(map(column.__getitem__, map(along.__getitem__, parents)))
        return tuple(map(along.__getitem__, position))

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

    def is_p_element(self, i: int, p: int) -> bool:
        """Whether i's order is a power of p: every cycle length is one, so
        the walk stops at the first cycle whose length is not."""
        if p < 2:  # _p_part's refusal, also for the identity, which has no cycle
            raise InputError(f"p = {p} is not prime")
        a = self.elements[i]
        seen = bytearray(len(a))
        for start, image in enumerate(a):
            if seen[start] or image == start:
                continue
            n, j = 0, start
            while not seen[j]:
                seen[j] = 1
                j = a[j]
                n += 1
            if _p_part(n, p) != n:
                return False
        return True

    def index_of(self, perm: Perm) -> int:
        try:
            return self._index[perm]
        except KeyError:
            raise InputError(f"{perm!r} is not an element of this group")

    # subgroup plumbing

    @property
    def trivial(self) -> "Subgroup":
        return Subgroup(self, 1)

    @property
    def top(self) -> "Subgroup":
        return Subgroup(self, (1 << self.order) - 1)

    def close_mask(self, seed: int) -> int:
        """Smallest subgroup mask containing the seed ordinals: the coset
        closure of `_grow` over them, in ascending order."""
        return mask_of(_grow(0, mask_members(seed), self.mult, self.order)[0])

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def _grow(ident, candidates, mul, cap: int, order: int = 0) -> tuple[list, list]:
    """The elements of the group generated by `candidates` under the product
    `mul` (`pmul` on permutations, `FiniteGroup.mult` on ordinals), and the
    candidates kept as its generators: Dimino's coset closure (G. Butler,
    Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

    The candidates are read in order, and one outside the group H closed so
    far is kept and grows H into K = <H, g>.  The new elements come as whole
    right cosets H·r, each listed as soon as its representative r is met,
    starting with H·g.  Every representative is multiplied by every kept
    generator, and a product r·h outside the union starts the next coset.
    The union is a union of cosets of H, so one probe of r·h decides all of
    H·(r·h); it holds 1 and is closed under right multiplication by every
    generator (H·h = H for the old ones and H·g is listed), so it is K.  So
    the closure costs one product per element, plus one probe per kept
    generator and representative: at most |K| + |gens|·|K| products.  A
    coset is checked against the cap before it is listed, so the closure
    raises exactly when the group it reaches exceeds `cap`.  The scan stops
    once the group has `order` elements.
    """
    elements, seen, gens = [ident], {ident}, []

    def adjoin(block: tuple, r) -> None:
        if len(elements) + len(block) > cap:
            raise CapExceeded("group order", cap)
        coset = list(map(mul, block, repeat(r)))
        elements.extend(coset)
        seen.update(coset)

    for g in candidates:
        if len(elements) == order:
            break
        if g in seen:
            continue
        block = tuple(elements)
        gens.append(g)
        adjoin(block, g)
        reps = [g]
        for r in reps:  # breadth first: the loop reads what it appends
            for h in gens:
                b = mul(r, h)
                if b not in seen:
                    adjoin(block, b)
                    reps.append(b)
    return elements, gens


def group_from_generators(degree: int, generators) -> FiniteGroup:
    """Closure of a generating set of permutations, one generator at a time,
    by cosets of the group closed so far (see `_grow`).

    A generator that lies in the group closed so far is dropped, so the
    group keeps only generators that each at least double it: at most
    log2 of its order, however many were given.  The closure costs |G|
    compositions for the cosets plus |gens|·[K:H] probes (one composition
    each) per step from H to K, and raises `CapExceeded` when the group
    would exceed the `group_order` cap.
    """
    checked = [_check_perm(degree, g) for g in generators]
    elements, gens = _grow(identity_perm(degree), checked, pmul,
                            current_caps().group_order)
    return FiniteGroup(elements, degree, gens)


class SConjugation:
    """Conjugation of the members of one subgroup S by the group's elements.

    `images(g)` is the tuple of x^g for the members x of S in ascending
    order, and `s_g(g)` the mask of S_g = {x in S : x^g in S}.  Both depend
    only on the coset C_G(S)·g: conjugation is a homomorphism, so c_g on S
    is fixed by g's label, the images of S's generators, and g, h have the
    same label exactly when h·g^-1 centralizes S.  The |S| row and S_g are
    built once per label and kept per g.  The rows give P**g for P <= S
    (`conjugate_mask`) and the one normalizer and centralizer sweep
    (`stabilizer`), inside S, inside a locality and in `is_characteristic_p`,
    and the one O_p fixpoint (`core`), of a group and of a locality.

    The cosets are found by walking the orbit of S's generator tuple under
    G's generators (orbit-stabilizer; Seress, Permutation Group Algorithms,
    2003, ch. 4): the label of g·h is label(g)^h and its row row(g)^h, and
    a new label's representative is its parent's times h.  Labels and
    cosets correspond one to one, so |C_G(S)| = |G| / |orbit|.  C_G(S), the
    stabilizer of the tuple, is generated by the Schreier elements
    r·h·r'^-1 of the edges r --h--> r' (Schreier's lemma), closed one at a
    time until the group reaches that order.  Labels and rows are read
    through the group's memo x -> x^h per generator h, shared by all its
    tables: each element met in a row is conjugated by each generator from
    permutations at most once.  Every composition is one C-level getter
    call (`pmul`), and a conjugate x^h is two: h^-1·x by the getter of h^-1
    that the memo keeps, then ·h.  So the walk costs, once per (G, S), at
    most |gens G| conjugates per element conjugate to a member of S, plus
    one composition per coset for its representative and two per Schreier
    element.  `coset` then lists a whole coset, one composition per member,
    and fills in its members' rows; any other g is labelled on its own,
    |gens S| conjugates, and a new label's row costs |S| (`_conj_images`
    builds g^-1's getter once per call).  The table keeps the group's
    element tuples, generator ordinals and memo, not the group, so the
    group's memo holds no cycle through it.
    """

    __slots__ = ("mask", "members", "_gens", "_group_gens", "_order", "_arith",
                 "_by_gen", "_rows", "_images", "_s_g", "_reps", "_centralizer",
                 "_cosets")

    def __init__(self, group: FiniteGroup, mask: int):
        self.mask = mask
        self.members = tuple(mask_members(mask))
        self._gens = Subgroup(group, mask).generators()
        self._group_gens = group.generators
        self._order = group.order
        elements, inv = group.elements, group._inv
        self._arith = (elements, inv, group._index)
        # per generator h, shared by every table of the group: the memo
        # x -> x^h, h, and the getter x -> h^-1·x that fills the memo (the
        # identity on degrees 0 and 1, whose getter would return a scalar)
        self._by_gen = group._memo.get("conj_by_gen")
        if self._by_gen is None:
            self._by_gen = group._memo["conj_by_gen"] = tuple(
                ({}, elements[h], itemgetter(*elements[inv[h]])
                 if group.degree > 1 else tuple)
                for h in group.generators)
        # label -> (row, S_g), one entry per coset C_G(S)·g seen so far
        self._rows: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        self._images: dict[int, tuple[int, ...]] = {}
        self._s_g: dict[int, int] = {}
        # the walk's representatives, ascending, and C_G(S), once walked
        self._reps: tuple[int, ...] | None = None
        self._centralizer: tuple[int, ...] = ()
        self._cosets: dict[int, tuple[int, ...]] = {}

    def _row(self, label: tuple[int, ...], g: int,
             make) -> tuple[tuple[int, ...], int]:
        """The row and S_g of the coset with this label, kept for g; `make()`
        gives the row when the label is new."""
        got = self._rows.get(label)
        if got is None:
            row = make()
            mask = self.mask
            s_g = 0
            for x, y in zip(self.members, row):
                if mask >> y & 1:
                    s_g |= 1 << x
            got = self._rows[label] = (row, s_g)
        self._images[g], self._s_g[g] = got
        return got

    def _build(self, g: int) -> tuple[tuple[int, ...], int]:
        # g's label: the images of S's generators, which fix c_g on S
        return self._row(_conj_images(*self._arith, self._gens, g), g,
                         lambda: _conj_images(*self._arith, self.members, g))

    def _conj_by(self, xs: tuple[int, ...], k: int) -> tuple[int, ...]:
        """x^h for each x in xs and the k-th group generator h, through the
        group's memo: each x is conjugated by h from permutations once."""
        memo, hp, pre = self._by_gen[k]
        elements, _, index = self._arith
        out = []
        for x in xs:
            y = memo.get(x)
            if y is None:
                y = memo[x] = index[pmul(pre(elements[x]), hp)]
            out.append(y)
        return tuple(out)

    def _walk(self) -> None:
        elements, inv, index = self._arith
        start = self._gens  # the label of 1
        reps = {start: 0}
        self._row(start, 0, lambda: self.members)
        edges = []  # (r, h, r') with label(r)^h = label(r') off the tree
        queue = [(start, 0)]
        for label, r in queue:  # breadth first: the loop reads what it appends
            for k, h in enumerate(self._group_gens):
                # label(r·h) = label(r)^h and row(r·h) = row(r)^h
                nxt = self._conj_by(label, k)
                got = reps.get(nxt)
                if got is None:
                    g = reps[nxt] = index[pmul(elements[r], elements[h])]
                    self._row(nxt, g, lambda: self._conj_by(self._images[r], k))
                    queue.append((nxt, g))
                else:
                    edges.append((r, h, got))
        # Close C_G(S) over the Schreier elements, never over its members
        # (with S trivial it is all of G), until it has |G| / |orbit| of them.
        schreier = (pmul(pmul(elements[r], elements[h]), elements[inv[r2]])
                    for r, h, r2 in edges)
        members = _grow(elements[0], schreier, pmul, self._order,
                        self._order // len(reps))[0]
        # the walk and the Schreier elements cover the group the generators
        # generate, which is all of G exactly when the orders agree
        if len(members) * len(reps) != self._order:
            raise InputError("the group's generators do not generate it")
        self._centralizer = tuple(sorted(index[x] for x in members))
        self._reps = tuple(sorted(reps.values()))

    def images(self, g: int) -> tuple[int, ...]:
        got = self._images.get(g)
        return got if got is not None else self._build(g)[0]

    def s_g(self, g: int) -> int:
        got = self._s_g.get(g)
        return got if got is not None else self._build(g)[1]

    def conjugate_mask(self, mask: int, g: int) -> int:
        """P**g for a subgroup P <= S given by its mask, read off g's row.

        The row holds x**g for every member x of S, inside S or not, so
        P**g = {x**g : x in P} needs no Cayley row and no S_g test.
        """
        out = 0
        for x, y in zip(self.members, self.images(g)):
            if mask >> x & 1:
                out |= 1 << y
        return out

    def stabilizer(self, P: "Subgroup", elements, pointwise: bool, name: str) -> int:
        """The mask of the g in `elements` that fix P <= S setwise (N(P)) or,
        when `pointwise`, elementwise (C(P)): P**g is generated by the x**g of
        P's generators x, on g's row, so x**g in P for each x decides P**g = P
        (the orders agree) and x**g == x that g centralizes P; either way
        P <= S_g follows."""
        pm = P.mask
        if pm & self.mask != pm:
            raise InputError(f"{name} expects P <= S")
        # for each generator x of P, its place on a row (the members below it)
        # and the mask that x**g must lie in: {x} pointwise, P setwise
        want = [((self.mask & ((1 << x) - 1)).bit_count(), 1 << x if pointwise else pm)
                for x in P.generators()]
        return mask_of(g for g in elements
                       if all(m >> self.images(g)[i] & 1 for i, m in want))

    def core(self, elements) -> int:
        """The mask of the largest T <= S with x**g in T for every x in T
        and every g in `elements`: O_p(H) of a group H and O_p(L) of a
        locality L on S, and L's full-domain test.

        A fixpoint over the elements' distinct rows, one shared row object
        per coset C_G(S)·g: each pass keeps the x of the current set whose
        images on every row stay in it.  Every stable set lies in every
        pass, and the subgroup a stable set generates is stable, so the
        fixpoint is the largest stable set, and a subgroup.
        - A group H >= S with S Sylow in H (`_sylow_core`): T is a normal
          p-subgroup of H, so T <= O_p(H); O_p(H) lies in S and is stable
          under H, so O_p(H) <= T.
        - A locality L (`Locality.__init__`): T is partial normal, as every
          word over T <= S is in D and each defined conjugate of a member
          of T stays in T.  A partial normal R <= S lies in T: take f in L
          and P = S_f.  For r in R cap N_S(P) the word (f**-1, r, f) has
          S_w >= P**f = S_(f**-1), an object, so r**f is defined, lies in
          R <= S, and r is in P.  By Dedekind N_RP(P) = P·N_R(P) = P, which
          in the p-group RP forces RP = P, so R <= S_f and R**f lies in R.
          So T is O_p(L).  Every S_w holds T, and for each x outside T
          some letters carry x out of S; those letters, then their
          inverses, over every such x, make a word with S_w = T.  Delta is
          closed under overgroups, so L has full domain iff T is an object.
        """
        rows = {id(row): row for row in map(self.images, elements)}.values()
        cur = self.mask
        while True:
            nxt = 0
            for i, x in enumerate(self.members):
                if cur >> x & 1 and all(cur >> row[i] & 1 for row in rows):
                    nxt |= 1 << x
            if nxt == cur:
                return cur
            cur = nxt

    def coset_representatives(self) -> tuple[int, ...]:
        """One g per coset C_G(S)·g, ascending: the walk's representatives."""
        if self._reps is None:
            self._walk()
        return self._reps

    def centralizer(self) -> tuple[int, ...]:
        """The members of C_G(S), ascending: the walk's stabilizer."""
        if self._reps is None:
            self._walk()
        return self._centralizer

    def coset(self, g: int) -> tuple[int, ...]:
        """The coset C_G(S)·g, built once; its members get g's row."""
        got = self._cosets.get(g)
        if got is None:
            elements, _, index = self._arith
            gp = elements[g]
            got = self._cosets[g] = tuple(index[pmul(elements[c], gp)]
                                          for c in self.centralizer())
            row, s_g = self.images(g), self.s_g(g)
            self._images.update(dict.fromkeys(got, row))
            self._s_g.update(dict.fromkeys(got, s_g))
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

    def le(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    def __contains__(self, ordinal: int) -> bool:
        return bool(self.mask >> ordinal & 1)

    def generators(self) -> tuple[int, ...]:
        """The members, in ascending order, that each lie outside the group
        generated by those before them; (0,) for the trivial subgroup.  One
        closure (`_grow`) grows with each kept generator."""
        memo = self.group._memo.setdefault("gens", {})
        got = memo.get(self.mask)
        if got is None:
            G = self.group
            elements, gens = _grow(0, self.members(), G.mult, G.order, self.order)
            if mask_of(elements) != self.mask:
                raise InputError("mask is not multiplicatively closed")
            got = memo[self.mask] = tuple(gens) or (0,)
        return got

    def _stabilizer(self, name: str, S: "Subgroup", pointwise: bool) -> "Subgroup":
        """The g in S that fix self setwise or pointwise, off S's conjugation
        table (`SConjugation.stabilizer`), memoized per (mask, S)."""
        G = self.group
        memo = G._memo.setdefault(name, {})
        key = (self.mask, S.mask)
        got = memo.get(key)
        if got is None:
            got = memo[key] = G.s_conjugation(S.mask).stabilizer(
                self, S.members(), pointwise, name)
        return Subgroup(G, got)

    def normalizer(self, S: "Subgroup") -> "Subgroup":
        """N_S(self), for a subgroup S that holds self."""
        return self._stabilizer("normalizer", S, False)

    def centralizer(self, S: "Subgroup") -> "Subgroup":
        """C_S(self), for a subgroup S that holds self."""
        return self._stabilizer("centralizer", S, True)

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
        known = {1}
        queue = [1]
        while queue:
            mask = queue.pop()
            tried = mask
            below = mask_members(mask)
            for g in members:
                if tried >> g & 1:
                    continue
                new_mask = G.close_mask(mask | 1 << g)
                if new_mask not in known:
                    if len(known) >= cap:
                        raise CapExceeded("subgroup count", cap)
                    known.add(new_mask)
                    queue.append(new_mask)
                # anything in the double coset H g H generates the same join
                for a in below:
                    xa = G.mult(a, g)
                    for b in below:
                        tried |= 1 << G.mult(xa, b)
        got = tuple(sorted(known, key=lambda m: (-m.bit_count(), m)))
        memo[H.mask] = got
    return [Subgroup(G, m) for m in got]


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
    if p < 2:  # p = 1 would divide n forever, and p = 0 not at all
        raise InputError(f"p = {p} is not prime")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def sylow_p(H: Subgroup, p: int) -> Subgroup:
    """The canonical-first Sylow p-subgroup of H, grown through normalizers
    once per (H, p)."""
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    G = H.group
    # the mask, not a Subgroup: the group's memo holds no cycle through it
    memo = G._memo.setdefault("sylow", {})
    got = memo.get((H.mask, p))
    if got is not None:
        return Subgroup(G, got)
    target = _p_part(H.order, p)
    P = G.trivial
    members = H.members()
    while P.order < target:
        # The first member of H, in ordinal order, that lies outside P, is a
        # p-element and normalizes P: the first eligible member of
        # P.normalizer(H), found without sweeping the rest of H.  P is normal
        # in P<g> and P<g>/P is cyclic, generated by the image of the
        # p-element g, so P<g> is a p-group on every input.  The guard stays
        # because H is caller input, and does not fire on a true subgroup H:
        # a p-subgroup P that is not Sylow in H has p | [N_H(P) : P], so a
        # Sylow p-subgroup of N_H(P) containing P holds a p-element outside
        # P, and the scan finds one.
        gens = P.generators()
        for g in members:
            if (not P.mask >> g & 1 and G.is_p_element(g, p)
                    and all(P.mask >> y & 1 for y in G.conj_images(gens, g))):
                P = Subgroup(G, G.close_mask(P.mask | 1 << g))
                break
        else:
            raise PropertyViolation("Sylow growth stalled below the p-part", P)
    memo[(H.mask, p)] = P.mask
    return P


def _sylow_core(H: Subgroup, p: int) -> tuple[SConjugation, int]:
    """The conjugation table of a Sylow p-subgroup S of H, and the mask of
    O_p(H), the core of S under H (`SConjugation.core`)."""
    table = H.group.s_conjugation(sylow_p(H, p).mask)
    return table, table.core(H.members())


def p_core(H: Subgroup, p: int) -> Subgroup:
    """O_p(H): the largest normal p-subgroup, the core of a Sylow p-subgroup."""
    return Subgroup(H.group, _sylow_core(H, p)[1])


def is_characteristic_p(H: Subgroup, p: int) -> bool:
    """True when the centralizer of O_p(H) in H sits inside O_p(H)."""
    # O_p(H) lies in the Sylow subgroup S, so C_H(O_p(H)) is read off S's table
    table, core = _sylow_core(H, p)
    P = Subgroup(H.group, core)
    return table.stabilizer(P, H.members(), True, "is_characteristic_p") | core == core
