"""Localities: objective partial groups carrying a maximal p-subgroup.

A locality is a partial group L with a distinguished p-subgroup S and an
object set Delta of subgroups of S such that a word w is in the domain
exactly when the successive-conjugation subgroup S_w lies in Delta (O1),
Delta is closed under overgroups in S and under the fusion maps (O2), and
S is maximal among p-subgroups of L.  `Locality` checks all three when it
is built, so a domain test may read the image of S_w in place of S_w.

Every carrier here is perm-backed: elements are ordinals of an ambient
FiniteGroup in which products and inverses are total, so partiality lives
entirely in the domain predicate.  Quotients are re-realized as permutation
groups through the right-multiplication action on coset blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, InputError, PropertyViolation
from .fusion import (FusionMap, FusionSystem, conjugation_fusion, fusion_from_group,
                     group_fusion)
from .partial import (
    PartialGroup,
    PartialSubgroup,
    PGHom,
    coset_partition,
    is_partial_normal,
    all_partial_normal_subgroups,
    normal_closure,
    products,
)
from .permgroup import (
    FiniteGroup,
    Subgroup,
    _grow,
    group_from_generators,
    is_characteristic_p,
    is_prime,
    mask_members,
    mask_of,
    perm_order,
    pmul,
    subgroups_below,
    sylow_p,
)

__all__ = [
    "ObjectSet",
    "object_set",
    "Locality",
    "LocalityQuotient",
    "ProperReport",
    "locality_from_group",
    "normalizer_in",
    "centralizer_in",
    "subgroup_in_locality",
    "is_proper",
    "restrict",
    "theta_quotient",
    "quotient_locality",
    "o_p_locality",
    "o_p_of",
    "o_pprime_of",
    "product_partial_normal",
    "resolve_delta_spec",
    "DELTA_SPECS",
]


@dataclass(frozen=True)
class ObjectSet:
    """Overgroup-closed family of subgroups of S, canonical order."""

    S: Subgroup
    members: tuple

    @cached_property
    def mask_set(self) -> frozenset:
        return frozenset(P.mask for P in self.members)

    @cached_property
    def cut(self) -> frozenset:
        """G|Delta = {g in G : S_g in Delta}, read off S's conjugation table.

        S_g depends only on the coset C_G(S)·g, so the cut is the union of
        the cosets C_G(S)·r of the table's representatives r with S_r in
        Delta.  Each coset is built once and fills in its members' rows, so
        the carrier's later reads of them are hits.
        """
        S, masks = self.S, self.mask_set
        table = S.group.s_conjugation(S.mask)
        return frozenset(g for r in table.coset_representatives()
                         if table.s_g(r) in masks for g in table.coset(r))

    def __repr__(self):
        return f"ObjectSet({len(self.members)} subgroups of S order {self.S.order})"


def object_set(S: Subgroup, subgroups, fusion: FusionSystem | None = None) -> ObjectSet:
    """Validated object set: nonempty, within S, overgroup-closed.

    With `fusion` given, invariance under the fusion maps is required too.
    """
    by_mask = {}
    for P in subgroups:
        if P.group is not S.group:
            raise InputError("object set entries live in a different group")
        if not P.le(S):
            raise InputError(f"object-set member {P!r} is not a subgroup of S")
        by_mask[P.mask] = P
    if not by_mask:
        raise InputError("object set must be nonempty")
    for Q in subgroups_below(S):
        if Q.mask in by_mask:
            continue
        if any(m & Q.mask == m for m in by_mask):
            raise InputError(f"object set is not closed under overgroups: missing {Q!r}")
    members = tuple(sorted(by_mask.values(), key=Subgroup.key))
    if fusion is not None and not fusion.is_f_closed(members):
        raise InputError("object set is not invariant under the fusion system")
    return ObjectSet(S, members)


class Locality(PartialGroup):
    """Perm-backed locality (L, Delta, S) inside an ambient finite group."""

    def __init__(self, group: FiniteGroup, members, S: Subgroup, delta: ObjectSet,
                 p: int):
        if S.group is not group or delta.S.mask != S.mask:
            raise InputError("S and Delta must live in the ambient group")
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if not S.is_p_group(p):
            raise InputError(f"S is not a {p}-group")
        self.group = group
        self.S = S
        self.delta = delta
        self.p = p
        members = set(members)
        for g in members:
            if not (isinstance(g, int) and 0 <= g < group.order):
                raise InputError(f"{g!r} is not an ambient group ordinal")
        self.elements = tuple(sorted(members))
        self.identity = 0
        super().__init__()
        self._carrier = frozenset(self.elements)
        # S's conjugation table, shared by every locality on (group, S)
        self._s_conj = group.s_conjugation(S.mask)
        # the carrier by S_g: mask -> its members, each block in carrier order
        self._blocks: dict[int, list] = {}
        for g in self.elements:
            self._blocks.setdefault(self._s_conj.s_g(g), []).append(g)
        # (g, mask of a subgroup of S) -> (mask & S_g)**g; see walk_step
        self._step_memo: dict[tuple, int] = {}
        # image cur -> (mask of the letters in D, images by letter); see walk_row
        self._image_rows: dict[int, tuple[int, list]] = {}
        self._fusion_cache: FusionSystem | None = None
        # is_proper's report; declared here so every instance keeps one
        # attribute layout (a slot added later made unrelated jobs slower)
        self._proper_report: ProperReport | None = None
        # theta_quotient's (Theta's members, L/Theta or None for L itself),
        # kept the same way; no reference back to L, so no cycle through it
        self._theta_quotient: tuple | None = None
        # automorphisms()'s permutations, built on first use
        self._automorphisms: tuple | None = None
        # every word is in D iff O_p(L) is an object (`SConjugation.core`)
        self.full_domain = self._s_conj.core(self.elements) in delta.mask_set
        self._validate()

    # -- S_g / S_w ----------------------------------------------------------

    def s_g_mask(self, g: int) -> int:
        """Mask of S_g = {x in S : x**g back in S}; g is an ambient ordinal."""
        return self._s_conj.s_g(g)

    def _step_mask(self, g: int, cur: int) -> int:
        """Mask of (cur & S_g)**g for a subgroup cur of S, memoized."""
        key = (g, cur)
        got = self._step_memo.get(key)
        if got is None:
            got = self._s_conj.conjugate_mask(cur & self.s_g_mask(g), g)
            self._step_memo[key] = got
        return got

    # -- word walker -----------------------------------------------------------
    #
    # The state of a word w = g1...gk is (S_w**p, p) with p = g1*...*gk, the
    # ambient product.  S_{wg} keeps the x in S_w whose conjugate by p*g
    # stays in S, so its image under p*g is (S_w**p & S_g)**g: a letter
    # costs one memo lookup and one multiplication.  Every conjugated set is
    # a subgroup of S, so the memo holds at most one entry per (ambient
    # element, subgroup of S).  Letters are ambient ordinals; the sweeps and
    # `in_domain` walk carrier elements only.

    def walk_start(self):
        return (self.S.mask, self.identity)

    def walk_step(self, state, g):
        cur, prod = state
        return (self._step_mask(g, cur), self.group.mult(prod, g))

    def walk_row(self, state, successors=True):
        """(mask of the carrier indices whose successor is in D, the
        successors in carrier order, or None when not `successors`).

        The image step (cur & S_g)**g is a function of (cur, g) alone, and
        `walk_in_domain` reads only the image, so a row's images and the
        mask of its letters in D depend on cur alone: they are built once
        per image, a subgroup of S, in `_image_rows`, and a row then costs
        one pass over p's Cayley row for its products (`mult_row`).  The
        mask needs no full-domain shortcut: every S_w holds O_p(L), and so
        does its image, as the carrier's conjugation keeps O_p(L), so on a
        full-domain carrier every image is an object.
        """
        cur, prod = state
        got = self._image_rows.get(cur)
        if got is None:
            images = [self._step_mask(g, cur) for g in self.elements]
            masks = self.delta.mask_set
            dom = sum(1 << x for x, m in enumerate(images) if m in masks)
            got = self._image_rows[cur] = (dom, images)
        dom, images = got
        if not successors:
            return dom, None
        return dom, list(zip(images, self.group.mult_row(prod, self.elements)))

    def _pull_back(self, state) -> int:
        """S_w from its image: conjugate by the inverse of the product.

        A step by p**-1 is that conjugation, because the image conjugates
        back into S_w, inside S, so it lies in S_{p**-1} already.  Only
        `s_word_mask` needs S_w itself: growth compares it with S_f.
        """
        cur, prod = state
        return self._step_mask(self.group.inv(prod), cur)

    def walk_in_domain(self, state) -> bool:
        # over carrier letters the image is S_w carried along the F-maps
        # c_g1, ..., c_gk, and Delta is F-closed (checked in _validate)
        return self.full_domain or state[0] in self.delta.mask_set

    def walk_product(self, state):
        return state[1]

    def s_word_mask(self, word) -> int:
        """Mask of S_w = {x in S : x**(g1...gi) in S for every prefix}.

        The word's letters are ambient ordinals and need not lie in the
        carrier.
        """
        word = tuple(word)
        order = self.group.order
        for g in word:
            if not 0 <= g < order:
                raise InputError(f"{g!r} is not an ambient group ordinal")
        return self._pull_back(self.walk(word))

    # -- partial group interface ---------------------------------------------

    def inv(self, x):
        return self.group.inv(x)

    def binary(self, x, y):
        return self.group.mult(x, y)

    def in_domain(self, word) -> bool:
        word = tuple(word)
        # one C-level set sweep: a per-letter `_index` test in a generator
        # was a third of verify's run time, at millions of calls per run
        if not self._carrier.issuperset(word):
            return False
        # a full-domain carrier answers before any walk
        return self.full_domain or self.walk_in_domain(self.walk(word))

    def domain_row(self, x) -> frozenset:
        """The y with (x, y) in D, read off S_(x**-1) and the S_g blocks.

        c_x carries S_(x, y) onto S_(x**-1) & S_y and c_(x**-1) carries it
        back, and Delta is F-closed (checked in _validate before its pair
        sweep), so (x, y) is in D iff that intersection is an object: one
        test per block of S_y.  Rows are kept by S_(x**-1), so there is at
        most one per distinct S_g.
        """
        if x not in self._index:
            return frozenset()
        if self.full_domain:
            return self._carrier
        key = self.s_g_mask(self.group.inv(x))
        row = self._domain_rows.get(key)
        if row is None:
            row = self._domain_rows[key] = frozenset(
                y for a, block in self._blocks.items()
                if key & a in self.delta.mask_set for y in block)
        return row

    def conjugates(self, x) -> list:
        """x**g for every g of the carrier with (g**-1, x, g) in D.

        The word's walk reaches S_g after g**-1 and a = (S_g & S_x)**x after
        x, and its last step carries a & S_g by c_g, an F-map on S_g.  Delta
        is F-closed (checked in _validate), so the word is in D iff a & S_g
        is an object: one test per block of elements with one S_g, and only
        the defined conjugates are multiplied.  On a full-domain carrier
        every block passes.
        """
        if x not in self._carrier:
            raise InputError(f"{x!r} is not an element of this partial group")
        masks, conj = self.delta.mask_set, self.group.conj
        return [conj(x, g) for a, block in self._blocks.items()
                if self.full_domain or self._step_mask(x, a) & a in masks
                for g in block]

    def product(self, word):
        """Product of a domain word, read off its one walk.

        S_u contains S_w for every prefix u of w, and Delta is closed under
        overgroups, so w in D puts every prefix in D, and the first prefix
        outside D ends at a letter outside the carrier or at the first walk
        state outside D: DomainError(word, k) names that prefix's length k.
        On a full-domain carrier no image of S_w is read, so the product of
        a word over the carrier is the ambient fold alone.
        """
        word = tuple(word)
        if self.full_domain and self._carrier.issuperset(word):
            return self.group.word(word)
        state = self.walk_start()
        for k, g in enumerate(word, 1):
            if g not in self._carrier:
                raise DomainError(word, k)
            state = self.walk_step(state, g)
            if not self.walk_in_domain(state):
                raise DomainError(word, k)
        return state[1]

    def automorphisms(self) -> tuple:
        """Generators of N_L(S), the block of S_g = S, as permutations of
        carrier indices: i -> the index of elements[i]**f.

        Conjugation by f in N_L(S) is an automorphism of the partial group L
        (Chermak, Fusion systems and localities, Acta Math. 211 (2013)):
        - f normalizes S, so S_(w**f) = (S_w)**f for every word w, a letter
          at a time, and c_f is a map of F(L) on S, under which Delta is
          closed (checked in _validate): w**f is in D iff w is;
        - products and inverses are ambient: (w**f) multiplies to
          (product of w)**f, and (x**f)**-1 = (x**-1)**f;
        - x**f lies in L: (f**-1, x, f) has S_w = (S_x)**f, an object, so
          it is in D and its product lies in the checked carrier.
        So a word and its conjugate agree on every domain, product, escape
        and inverse test, and the sweeps read one representative per orbit.
        Only an exact `Locality` offers them, after `_validate`: a subclass
        that skips or changes a check gets none, and is swept whole.  The
        generators come from one coset closure of the block over its
        permutations (see `_grow`), and each is conjugated through
        permutation images, so no Cayley row is built; generators that fix
        every element are dropped.
        """
        if type(self) is not Locality:
            return ()
        if self._automorphisms is None:
            G, index = self.group, self._index
            block = [G.elements[g] for g in self._blocks[self.S.mask]]
            gens = _grow(G.elements[0], block, pmul, len(block), len(block))[1]
            fixed = tuple(range(len(self.elements)))
            perms = (tuple(map(index.__getitem__,
                               G.conj_images(self.elements, G.index_of(f))))
                     for f in gens)
            self._automorphisms = tuple(pi for pi in perms if pi != fixed)
        return self._automorphisms

    # -- construction-time checks ---------------------------------------------

    def _validate(self):
        if not self.elements or self.elements[0] != 0:
            raise InputError("locality must contain the ambient identity")
        # (O2), before the pair sweep, whose domain tests read images of S_w.
        # F(L) is generated by c_g on S_g, g in L (g**-1 in L: inversion
        # guard), so Delta is F-closed iff each c_g carries each object
        # P <= S_g to an object, and a minimal object P0 <= P decides, as
        # P**g >= P0**g.  P0**g is read off g's row of the S-conjugation table.
        table, masks = self._s_conj, self.delta.mask_set
        pos = {x: i for i, x in enumerate(table.members)}
        minimal = [(m, [pos[x] for x in mask_members(m)]) for m in masks
                   if not any(o != m and o & m == o for o in masks)]
        for g in self.elements:
            s_g, row = table.s_g(g), table.images(g)
            for m, spots in minimal:
                if m & s_g == m and sum(1 << row[i] for i in spots) not in masks:
                    raise InputError("object set is not invariant under the fusion system")
        G, cut = self.group, self.delta.cut
        for g in self.elements:
            if g not in cut:
                raise PropertyViolation("O1 fails: member with S_g outside Delta",
                                        witness=g)
            if G.inv(g) not in self._index:
                raise PropertyViolation("carrier is not inversion-closed", witness=g)
        missing = [s for s in self.S.members() if s not in self._index]
        if missing:
            raise PropertyViolation("S is not contained in the carrier",
                                    witness=missing[0])
        # A carrier that is its whole cut is closed: (g, h) in D has
        # S_(g, h) <= S_gh, S_(g, h) is an object and Delta is closed under
        # overgroups, so gh lies in the cut.  On a full-domain carrier
        # S_(g, h) holds O_p(L), an object, so this holds there too.
        if self._carrier != cut and not products(
                self, self.elements, self._carrier) <= self._carrier:
            raise PropertyViolation("domain product escapes the carrier", witness=next(
                (g, h) for g in self.elements for h in self.elements
                if h in self.domain_row(g) and G.mult(g, h) not in self._index))
        self._check_s_maximal()

    def _check_s_maximal(self):
        """(L2): S is maximal among the p-subgroups of L, read off N_L(S).

        S is maximal iff no p-element x outside S has S_x = S, that is,
        iff no such x lies in N_L(S).
        - If such an x exists, every word over S and x has S_w = S, an
          object, so S<x> lies in L with G's products; x normalizes S, so
          S<x> is a p-subgroup of L strictly above S.
        - If Q > S is a p-subgroup of L, every word over Q is in the
          domain, so Q is an honest finite p-group under G's products.  A
          proper subgroup of a p-group is properly contained in its
          normalizer, so some y in N_Q(S) outside S is a p-element with
          S_y = S.
        N_L(S) is the block of S_g = S, in carrier order, so the witness is
        the first such x in carrier order.
        """
        G = self.group
        for x in self._blocks[self.S.mask]:
            if x not in self.S and G.is_p_element(x, self.p):
                raise PropertyViolation(
                    "S is not a maximal p-subgroup of the carrier", witness=x
                )

    # -- derived structure ----------------------------------------------------

    def fusion(self) -> FusionSystem:
        """The fusion system on S generated by conjugation by carrier elements.

        A construction that proves the system hands it on: F_S(G) for a
        partial-domain restriction of G whose objects hold F^cr
        (`locality_from_group`, by Alperin's theorem), L's system for a
        growth step (`elementary_expand`).  Otherwise a full-domain carrier
        is a group under G's products, a subgroup H >= S, so its system is
        F_S(H) and is read as restrictions (group_fusion).  Any other
        carrier is closed by composition: c_g then c_h on a non-object P
        need not be one c_f with f in the carrier.
        """
        if self._fusion_cache is None:
            build = group_fusion if self.full_domain else conjugation_fusion
            self._fusion_cache = build(self.S, self.elements)
        return self._fusion_cache

    def __repr__(self):
        return (f"Locality(|L|={len(self.elements)}, |S|={self.S.order}, "
                f"|Delta|={len(self.delta.members)}, p={self.p})")


# -- constructors --------------------------------------------------------------


def locality_from_group(G: FiniteGroup, p: int, delta) -> Locality:
    """Restriction G|_Delta: the cut `delta.cut`, domain by (O1).

    (O2) for F(L) is (O2) for F(G): P <= S_g with P an object puts g in L.
    The carrier is its whole cut, so `Locality` skips its closure sweep.

    When Delta holds F^cr for F = F_S(G), L takes F as its system, by
    Alperin's fusion theorem (Alperin 1967, in Goldschmidt's form): F is
    saturated, so it is generated by the Aut_G(Q), Q in F^cr.  Each such Q
    is an object, so N_G(Q) lies in the cut, which is L, and F <= F(L);
    every c_g with g in L is a map of F, so F(L) <= F.  A full-domain L
    takes no system here: it is a group H >= S, and `fusion` reads F_S(H)
    off its own members, which costs less than F's pass over G's cosets.
    """
    S = sylow_p(G.top, p)
    if not isinstance(delta, ObjectSet):
        delta = object_set(S, delta)
    L = Locality(G, delta.cut, S, delta, p)
    if not L.full_domain:
        F = fusion_from_group(G, p)
        if all(P.mask in delta.mask_set for P in F.class_sets()["cr"]):
            L._fusion_cache = F
    return L


# -- normalizers, properness ----------------------------------------------------


def _above(L: Locality, P: Subgroup) -> list:
    """The members of the S_g blocks with P <= S_g: P**g = P needs P <= S_g,
    so N_L(P) and C_L(P) lie there, and a stabilizer is a mask, so the
    blocks' order does not matter."""
    pm = P.mask
    return [g for m, block in L._blocks.items() if m & pm == pm for g in block]


def normalizer_in(L: Locality, P: Subgroup) -> PartialSubgroup:
    """N_L(P) = {g : P <= S_g and P**g = P}, off S's table by its one sweep.

    For an object P this is a subgroup with every product in D: g, h in it
    give P <= S_(g, h), an object, so (g, h) is in D, and the checked carrier
    holds gh and g**-1, which normalize (or centralize) P; no pair sweep is
    needed.  The same holds for `centralizer_in`.
    """
    return PartialSubgroup(L, frozenset(mask_members(
        L._s_conj.stabilizer(P, _above(L, P), False, "normalizer_in"))))


def centralizer_in(L: Locality, P: Subgroup) -> PartialSubgroup:
    """C_L(P) = {g in N_L(P) : x**g = x for all x in P}."""
    return PartialSubgroup(L, frozenset(mask_members(
        L._s_conj.stabilizer(P, _above(L, P), True, "centralizer_in"))))


def subgroup_in_locality(L: Locality, members) -> tuple[bool, tuple | None]:
    """Is the member set a subgroup with every product formed inside L?

    Returns (True, None), or (False, witness) where the witness is the
    missing identity, an element whose inverse is missing, or a pair whose
    product is undefined or escapes the set.
    """
    ms = set(members)
    if L.identity not in ms:
        return False, (L.identity,)
    for g in ms:
        if L.inv(g) not in ms:
            return False, (g,)
    if all(ms <= L.domain_row(g) for g in ms) and products(L, ms, ms) <= ms:
        return True, None
    order = sorted(ms)
    return False, next((g, h) for g in order for h in order
                       if h not in L.domain_row(g) or L.binary(g, h) not in ms)


@dataclass
class ProperReport:
    ok: bool
    missing_cr: list = field(default_factory=list)
    bad_normalizers: list = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return "proper"
        parts = []
        if self.missing_cr:
            parts.append(f"{len(self.missing_cr)} centric-radical objects missing")
        if self.bad_normalizers:
            parts.append(f"{len(self.bad_normalizers)} normalizers not characteristic p")
        return "not proper: " + "; ".join(parts)


def is_proper(L: Locality) -> ProperReport:
    """(PL1) F^cr inside Delta; (PL2) every object normalizer characteristic p.

    The report is computed once per locality and kept on it: the carrier,
    S and Delta are fixed at construction, so it cannot change.  Every
    caller receives the same report object.
    """
    if L._proper_report is not None:
        return L._proper_report
    report = ProperReport(ok=True)
    F = L.fusion()
    for P in F.class_sets()["cr"]:
        if P.mask not in L.delta.mask_set:
            report.missing_cr.append(P)
    for P in L.delta.members:
        # a subgroup for an object P, as argued in normalizer_in
        N = Subgroup(L.group, mask_of(normalizer_in(L, P).members))
        if not is_characteristic_p(N, L.p):
            report.bad_normalizers.append((P, N))
    report.ok = not report.missing_cr and not report.bad_normalizers
    L._proper_report = report
    return report


# -- restriction -----------------------------------------------------------------


def restrict(L: Locality, delta0) -> Locality:
    """L|_{Delta0} for an F-closed subset Delta0 of Delta: L meet `delta0.cut`.

    The cut checks (O2); on Delta0 its maps are L's (`locality_from_group`).
    When L is its own cut on Delta, so is the restriction, and `Locality`
    skips its closure sweep.
    A proper L restricted to a Delta0 that holds F^cr is proper, so this is
    not checked: (PL2) holds as N_cut(P) = N_L(P) for P in Delta0, and F(L)
    is saturated, so by Alperin's fusion theorem it is generated by the
    Aut_F(P), P in F^cr, which N_cut(P) realizes; F(cut) = F(L), whose F^cr
    lies in Delta0 (PL1).
    """
    if not isinstance(delta0, ObjectSet):
        delta0 = object_set(L.S, delta0)
    if not delta0.mask_set <= L.delta.mask_set:
        raise InputError("restriction object set must be a subset of Delta")
    return Locality(L.group, L._carrier & delta0.cut, L.S, delta0, L.p)


# -- quotients --------------------------------------------------------------------


@dataclass
class LocalityQuotient:
    locality: Locality
    rho: PGHom
    sigma: FusionMap
    blocks: tuple


def quotient_locality(L: Locality, N: PartialSubgroup) -> LocalityQuotient:
    """L/N realized as a permutation group via the block right-multiplication.

    Needs a full-domain carrier: only then do the maximal cosets form a
    group that acts regularly on itself.
    """
    if not L.full_domain:
        raise InputError("quotient realization needs a full-domain locality")
    blocks = coset_partition(L, N)
    pos = {x: i for i, c in enumerate(blocks) for x in c}
    G = L.group
    # One product per pair of blocks.  L has full domain, so it is a group,
    # and coset_partition has checked that N is partial normal, so N is a
    # normal subgroup of L and the blocks are its cosets: Nx * Ny = Nxy, and
    # any representatives give the same block: here their least members.
    # The block product is associative as G's is.  The block of 1 is an
    # identity and the block of x**-1 inverts the block of x, so the blocks
    # form a group and perms is its right regular representation: Q has one
    # element per block.
    reps = [min(b) for b in blocks]
    perms = [tuple(pos[G.mult(b, c)] for b in reps) for c in reps]
    Q = group_from_generators(len(blocks), perms)
    to_ord = {i: Q.index_of(p) for i, p in enumerate(perms)}
    send = {x: to_ord[pos[x]] for x in L.elements}

    s_bar = Subgroup(Q, mask_of(send[s] for s in L.S.members()))
    delta_bar = object_set(
        s_bar,
        {Subgroup(Q, mask_of(send[x] for x in P.members())) for P in L.delta.members},
    )
    lbar = Locality(Q, range(Q.order), s_bar, delta_bar, L.p)
    # rho is a homomorphism without a sweep.  L has full domain, so it is a
    # group, and Q's product is the block product: rho(xy) = rho(x)rho(y).
    # O_p(L) is an object normal in L, and its image is normal in Q and in
    # Delta_bar, so lbar has full domain too.
    rho = PGHom(L, lbar, send)
    sigma = FusionMap(L.fusion(), lbar.fusion(),
                      {s: send[s] for s in L.S.members()})
    return LocalityQuotient(lbar, rho, sigma, blocks)


def theta_quotient(L: Locality):
    """Mod out the p'-parts of object centralizers; yields a proper locality.

    Requires F^cr <= Delta <= F^q.  Returns (Theta, quotient locality); the
    quotient keeps the same fusion system through the induced map on S, as
    argued below, without a check.  When Theta is trivial the quotient is L
    itself.  The pair is built once per locality and kept on it.
    """
    if L._theta_quotient is not None:
        members, quotient = L._theta_quotient
        return PartialSubgroup(L, members), L if quotient is None else quotient
    cs = L.fusion().class_sets()
    cr_masks = {P.mask for P in cs["cr"]}
    q_masks = {P.mask for P in cs["q"]}
    if not cr_masks <= L.delta.mask_set:
        raise InputError("theta quotient needs F^cr inside Delta")
    if not L.delta.mask_set <= q_masks:
        raise InputError("theta quotient needs Delta inside F^q")

    # Theta is the union of the O_p'(C_L(P)), P in Delta, and each is the
    # set of p'-elements of C_L(P), a group as P is an object (normalizer_in).
    # Take Q = P**g (g in L) fully centralized.  Delta <= F^q, so C_F(Q) is
    # the trivial system on C_S(Q), a Sylow p-subgroup of C_L(Q) whose
    # fusion C_L(Q) realizes; by Frobenius's normal p-complement theorem
    # C_L(Q) has a normal p-complement, which is its set of p'-elements.
    # c_g carries C_L(P) isomorphically onto C_L(Q), so the same holds for
    # C_L(P).  A C_L(P) of order prime to p is taken without reading orders.
    members = {L.identity}
    for P in L.delta.members:
        C = centralizer_in(L, P).members
        members.update(C if len(C) % L.p else
                       (x for x in C if perm_order(L.group.elements[x]) % L.p))
    # Theta is partial normal as Delta is F-closed (Chermak, Finite localities
    # I, 2015; Henke, Trans. AMS 371 (2019)); coset_partition checks it.
    theta = PartialSubgroup(L, frozenset(members))
    if theta.order == 1:
        quotient = L  # L/1 = L
    else:
        # Theta meets S trivially, so L -> L/Theta maps S isomorphically
        # onto its image and carries F onto the quotient's fusion system
        # (Chermak, Finite localities I, 2015)
        quotient = quotient_locality(L, theta).locality
    prop = is_proper(quotient)
    if not prop.ok:
        raise PropertyViolation("theta quotient is not proper", witness=prop.summary())
    L._theta_quotient = (theta.members, None if quotient is L else quotient)
    return theta, quotient


# -- cores and products -------------------------------------------------------------


def o_p_locality(L: Locality) -> Subgroup:
    """O_p(L), the largest subgroup of S partial normal in L: the core of S
    under the carrier, off S's conjugation table (`SConjugation.core`)."""
    return Subgroup(L.group, L._s_conj.core(L.elements))


def _s_part(L: Locality, N: PartialSubgroup) -> frozenset:
    """S cap N, for a partial normal N."""
    if not is_partial_normal(L, N):
        raise InputError("relative core needs a partial normal subgroup")
    return frozenset(x for x in L.S.members() if x in N.members)


def o_p_of(L: Locality, N: PartialSubgroup) -> PartialSubgroup:
    """Intersection of the partial normal K with K(S cap N) = N.

    N is in the family, as a partial subgroup holding T = S cap N has
    NT = N, and the lattice holds every partial normal.  The intersection
    of the family is in it again (Chermak, Finite localities II, arXiv
    1505.08110), so it is the member of least order, inside every other:
    the first hit from the small end of the lattice.  Only the K inside N
    are multiplied: 1 is in T and (k, 1) is in D, so K lies in KT, and
    KT = N puts K inside N.
    """
    T = _s_part(L, N)
    return next(K for K in reversed(all_partial_normal_subgroups(L))
                if K.members <= N.members and products(L, K.members, T) == N.members)


def o_pprime_of(L: Locality, N: PartialSubgroup) -> PartialSubgroup:
    """Intersection of the partial normal K containing S cap N.

    Partial normal subgroups are closed under intersection, so that
    intersection is the least of them: the normal closure of S cap N.
    """
    return normal_closure(L, _s_part(L, N))


def product_partial_normal(L: Locality, M: PartialSubgroup,
                           N: PartialSubgroup) -> PartialSubgroup:
    """MN, the normal closure of M and N together, read off the class table.

    For partial normal M and N of a locality, MN is partial normal (Chermak,
    Finite localities I, 2015).  It holds M and N, as (m, 1) and (1, n) are
    in D, and every partial normal subgroup holding both is closed under
    D's products, so holds MN: MN is the least of them.
    """
    if not is_partial_normal(L, M) or not is_partial_normal(L, N):
        raise InputError("product needs partial normal inputs")
    return normal_closure(L, M.members | N.members)


# -- CLI-facing object-set vocabulary -------------------------------------------------


# the names resolve_delta_spec takes, in the order the CLI lists them
DELTA_SPECS = ("cr-closure", "c", "q", "s", "all-nontrivial", "all")


def resolve_delta_spec(F: FusionSystem, spec: str) -> list:
    """Named object families over F's carrier: cr-closure, c, q, s, all(-nontrivial)."""
    if spec == "all":
        return list(F.subs)
    if spec == "all-nontrivial":
        return [P for P in F.subs if P.order > 1]
    if spec in {"c", "q", "s"}:
        return list(F.class_sets()[spec])
    if spec == "cr-closure":
        # The overgroups of F^cr are F-closed: F^cr is, and Q >= P in F^cr
        # carries P into Q's image.
        cr = [P.mask for P in F.class_sets()["cr"]]
        return [Q for Q in F.subs if any(m & Q.mask == m for m in cr)]
    raise InputError(f"unknown object-set spec {spec!r}")
