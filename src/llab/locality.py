"""Localities: objective partial groups carrying a maximal p-subgroup.

A locality is a partial group L with a distinguished p-subgroup S and an
object set Delta of subgroups of S such that a word w is in the domain
exactly when the successive-conjugation subgroup S_w lies in Delta (O1),
Delta is closed under overgroups in S and under the fusion maps (O2), and
S is maximal among p-subgroups of L.

Every carrier here is perm-backed: elements are ordinals of an ambient
FiniteGroup in which products and inverses are total, so partiality lives
entirely in the domain predicate.  Quotients are re-realized as permutation
groups through the right-multiplication action on coset blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError, PropertyViolation
from .fusion import (
    FusionMap,
    FusionSystem,
    conjugation_fusion,
    fusion_from_group,
    quotient_fusion_check,
)
from .partial import (
    PartialGroup,
    PartialSubgroup,
    PGHom,
    coset_partition,
    generated_subgroup,
    is_partial_normal,
    all_partial_normal_subgroups,
)
from .permgroup import (
    FiniteGroup,
    Subgroup,
    group_from_generators,
    is_characteristic_p,
    mask_of,
    p_prime_core,
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
    "s_of_word",
    "fusion_of",
    "normalizer_in",
    "centralizer_in",
    "subgroup_in_locality",
    "is_proper",
    "restrict",
    "restriction_cut",
    "theta_quotient",
    "quotient_locality",
    "normalizer_locality",
    "centralizer_locality",
    "o_p_locality",
    "o_p_of",
    "o_pprime_of",
    "product_partial_normal",
    "resolve_delta_spec",
]


@dataclass(frozen=True)
class ObjectSet:
    """Overgroup-closed family of subgroups of S, canonical order."""

    S: Subgroup
    members: tuple

    @cached_property
    def mask_set(self) -> frozenset:
        return frozenset(P.mask for P in self.members)

    def __contains__(self, P: Subgroup) -> bool:
        return P.mask in self.mask_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

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
        self.group = group
        self.S = S
        self.delta = delta
        self.p = p
        self.elements = tuple(sorted(set(members)))
        self.identity = 0
        super().__init__()
        self._carrier = frozenset(self.elements)
        # S's conjugation table, shared by every locality on (group, S)
        self._s_conj = group.s_conjugation(S.mask)
        # (g, mask of a subgroup of S) -> (mask & S_g)**g; see walk_step
        self._step_memo: dict[tuple, int] = {}
        self._fusion_cache: FusionSystem | None = None
        # is_proper's report; declared here so every instance keeps one
        # attribute layout (a slot added later made unrelated jobs slower)
        self._proper_report: ProperReport | None = None
        self.full_domain = self._invariant_core_mask() in delta.mask_set
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
            got = Subgroup(self.group, cur & self.s_g_mask(g)).conjugate(g).mask
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

    def _pull_back(self, state) -> int:
        """S_w from its image: conjugate by the inverse of the product.

        A step by p**-1 is that conjugation, because the image conjugates
        back into S_w, inside S, so it lies in S_{p**-1} already.  S_w and
        its image are conjugate by p, so an F-closed Delta decides them
        alike; the domain test pulls back because `Locality.__init__` does
        not check that Delta is F-closed, so a hand-built Delta may not be.
        Quotient localities are full-domain and never get here.
        """
        cur, prod = state
        return self._step_mask(self.group.inv(prod), cur)

    def walk_in_domain(self, state) -> bool:
        return self.full_domain or self._pull_back(state) in self.delta.mask_set

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

    def conj(self, x, g):
        """x**g from one walk of (g**-1, x, g): its domain test and product.

        None when a letter is outside the carrier or the word is outside D;
        a full-domain carrier conjugates in the ambient group.
        """
        gi = self.group.inv(g)
        if not self._carrier.issuperset((gi, x, g)):
            return None
        if self.full_domain:
            return self.group.conj(x, g)
        state = self.walk((gi, x, g))
        return state[1] if self.walk_in_domain(state) else None

    def product(self, word):
        """Product of a domain word, read off its one walk.

        S_u contains S_w for every prefix u of w, and Delta is closed under
        overgroups, so w in D puts every prefix in D.  A word outside D
        falls back to the prefix-by-prefix fold, whose DomainError names
        the first failing prefix.  On a full-domain carrier no image of S_w
        is read, so the product is the ambient fold alone.
        """
        word = tuple(word)
        if self._carrier.issuperset(word):
            if self.full_domain:
                return self.group.word(word)
            state = self.walk(word)
            if self.walk_in_domain(state):
                return state[1]
        return PartialGroup.product(self, word)

    def _invariant_core_mask(self) -> int:
        """Largest subgroup of S stable under conjugation by every element.

        The locality has full word domain exactly when this core is an
        object: S_w shrinks to the core along long mixing words and never
        below it, and Delta is closed under overgroups.
        """
        table = self._s_conj
        rows = [table.images(g) for g in self.elements]
        cur = self.S.mask
        while True:
            nxt = 0
            for i, x in enumerate(table.members):
                if cur >> x & 1 and all(cur >> row[i] & 1 for row in rows):
                    nxt |= 1 << x
            if nxt == cur:
                return cur
            cur = nxt

    # -- construction-time checks ---------------------------------------------

    def _validate(self):
        if not self.elements or self.elements[0] != 0:
            raise InputError("locality must contain the ambient identity")
        G = self.group
        for g in self.elements:
            if self.s_g_mask(g) not in self.delta.mask_set:
                raise PropertyViolation("O1 fails: member with S_g outside Delta",
                                        witness=g)
            if G.inv(g) not in self._index:
                raise PropertyViolation("carrier is not inversion-closed", witness=g)
        missing = [s for s in self.S.members() if s not in self._index]
        if missing:
            raise PropertyViolation("S is not contained in the carrier",
                                    witness=missing[0])
        for g, h in itertools.product(self.elements, repeat=2):
            if self.in_domain((g, h)) and G.mult(g, h) not in self._index:
                raise PropertyViolation("domain product escapes the carrier",
                                        witness=(g, h))
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
        The witness is the first such x in carrier order.
        """
        G = self.group
        for x in self.elements:
            if x in self.S or not G.is_p_element(x, self.p):
                continue
            if self.s_g_mask(x) == self.S.mask:
                raise PropertyViolation(
                    "S is not a maximal p-subgroup of the carrier", witness=x
                )

    # -- derived structure ----------------------------------------------------

    def fusion(self) -> FusionSystem:
        """The fusion system on S generated by conjugation by carrier elements."""
        if self._fusion_cache is None:
            self._fusion_cache = conjugation_fusion(self.S, self.elements)
        return self._fusion_cache

    def sub(self, xs) -> PartialSubgroup:
        return PartialSubgroup(self, frozenset(xs))

    def perm_subgroup(self, part: PartialSubgroup) -> Subgroup:
        """A partial subgroup whose products are all defined, as an ambient Subgroup."""
        mask = mask_of(part.members)
        if not self.group.is_closed_mask(mask):
            raise PropertyViolation("partial subgroup is not an ambient subgroup",
                                    witness=mask)
        return Subgroup(self.group, mask)

    def __repr__(self):
        return (f"Locality(|L|={len(self.elements)}, |S|={self.S.order}, "
                f"|Delta|={len(self.delta)}, p={self.p})")


# -- constructors --------------------------------------------------------------


def locality_from_group(G: FiniteGroup, p: int, delta) -> Locality:
    """Restriction G|_Delta: elements with S_g in Delta, domain by (O1)."""
    S = sylow_p(G.top, p)
    F = fusion_from_group(G, p, S)
    if not isinstance(delta, ObjectSet):
        delta = object_set(S, delta, fusion=F)
    elif not F.is_f_closed(delta.members):
        raise InputError("object set is not invariant under the fusion system")
    table = G.s_conjugation(S.mask)
    members = [g for g in range(G.order) if table.s_g(g) in delta.mask_set]
    return Locality(G, members, S, delta, p)


def s_of_word(L: Locality, word) -> Subgroup:
    """S_w for a word of ambient ordinals (entries need not lie in L)."""
    return Subgroup(L.group, L.s_word_mask(word))


def fusion_of(L: Locality) -> FusionSystem:
    return L.fusion()


# -- normalizers, properness ----------------------------------------------------


def normalizer_in(L: Locality, P: Subgroup) -> PartialSubgroup:
    """N_L(P) = {g : P <= S_g and P**g = P}; a group when P is an object."""
    if not P.le(L.S):
        raise InputError("normalizer_in expects P <= S")
    pm = P.mask
    members = [g for g in L.elements
               if L.s_g_mask(g) & pm == pm and P.conjugate(g).mask == pm]
    if pm in L.delta.mask_set:
        ok, witness = subgroup_in_locality(L, members)
        if not ok:
            raise PropertyViolation("N_L(P) for an object P is not a subgroup",
                                    witness=witness)
    return PartialSubgroup(L, frozenset(members))


def centralizer_in(L: Locality, P: Subgroup) -> PartialSubgroup:
    """C_L(P) = {g in N_L(P) : x**g = x for all x in P}."""
    if not P.le(L.S):
        raise InputError("centralizer_in expects P <= S")
    pm = P.mask
    G = L.group
    members = [g for g in L.elements
               if L.s_g_mask(g) & pm == pm
               and all(G.conj(x, g) == x for x in P.members())]
    if pm in L.delta.mask_set:
        ok, witness = subgroup_in_locality(L, members)
        if not ok:
            raise PropertyViolation("C_L(P) for an object P is not a subgroup",
                                    witness=witness)
    return PartialSubgroup(L, frozenset(members))


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
    for g, h in itertools.product(sorted(ms), repeat=2):
        if not L.in_domain((g, h)) or L.binary(g, h) not in ms:
            return False, (g, h)
    return True, None


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
        N = L.perm_subgroup(normalizer_in(L, P))
        if not is_characteristic_p(N, L.p):
            report.bad_normalizers.append((P, N))
    report.ok = not report.missing_cr and not report.bad_normalizers
    L._proper_report = report
    return report


# -- restriction -----------------------------------------------------------------


def restriction_cut(L: Locality, delta0: ObjectSet) -> tuple:
    """Carrier of L|_{Delta0}: the members g with S_g in Delta0, in L's order."""
    return tuple(g for g in L.elements if L.s_g_mask(g) in delta0.mask_set)


def restrict(L: Locality, delta0) -> Locality:
    """L|_{Delta0} for an F-closed subset Delta0 of Delta."""
    F = L.fusion()
    if not isinstance(delta0, ObjectSet):
        delta0 = object_set(L.S, delta0, fusion=F)
    elif not F.is_f_closed(delta0.members):
        raise InputError("restriction object set is not F-closed")
    if not delta0.mask_set <= L.delta.mask_set:
        raise InputError("restriction object set must be a subset of Delta")
    out = Locality(L.group, restriction_cut(L, delta0), L.S, delta0, L.p)
    cr_masks = {P.mask for P in F.class_sets()["cr"]}
    if cr_masks <= delta0.mask_set and is_proper(L).ok and not is_proper(out).ok:
        raise PropertyViolation("restriction broke properness", witness=delta0)
    return out


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
    perms = []
    for c in blocks:
        images = []
        for b in blocks:
            hits = {pos[G.mult(x, y)] for x in b for y in c}
            if len(hits) != 1:
                raise PropertyViolation(
                    "coset product is not representative-independent",
                    witness=(min(b), min(c)),
                )
            images.append(hits.pop())
        perms.append(tuple(images))
    Q = group_from_generators(len(blocks), perms)
    if Q.order != len(blocks):
        raise PropertyViolation("block action is not regular", witness=Q.order)
    to_ord = {i: Q.index_of(p) for i, p in enumerate(perms)}
    send = {x: to_ord[pos[x]] for x in L.elements}

    s_bar = Subgroup(Q, mask_of(send[s] for s in L.S.members()))
    delta_bar = object_set(
        s_bar,
        {Subgroup(Q, mask_of(send[x] for x in P.members())) for P in L.delta.members},
    )
    lbar = Locality(Q, range(Q.order), s_bar, delta_bar, L.p)
    rho = PGHom(L, lbar, send)
    ok, witness = rho.verify()
    if not ok:
        raise PropertyViolation("quotient projection is not a homomorphism",
                                witness=witness)
    sigma = FusionMap(L.fusion(), lbar.fusion(),
                      {s: send[s] for s in L.S.members()})
    return LocalityQuotient(lbar, rho, sigma, blocks)


def theta_quotient(L: Locality):
    """Mod out the p'-parts of object centralizers; yields a proper locality.

    Requires F^cr <= Delta <= F^q.  Returns (Theta, quotient locality); the
    quotient keeps the same fusion system, which is asserted through the
    induced map on S.  When Theta is trivial the quotient is L itself.
    """
    F = L.fusion()
    cs = F.class_sets()
    cr_masks = {P.mask for P in cs["cr"]}
    q_masks = {P.mask for P in cs["q"]}
    if not cr_masks <= L.delta.mask_set:
        raise InputError("theta quotient needs F^cr inside Delta")
    if not L.delta.mask_set <= q_masks:
        raise InputError("theta quotient needs Delta inside F^q")

    members = {L.identity}
    for P in L.delta.members:
        C = L.perm_subgroup(centralizer_in(L, P))
        members.update(p_prime_core(C, L.p).members())
    theta = PartialSubgroup(L, frozenset(members))
    if not is_partial_normal(L, theta):
        raise PropertyViolation("Theta is not partial normal", witness=theta)

    if theta.order == 1:
        quotient = L  # L/1 = L
    else:
        lq = quotient_locality(L, theta)
        quotient = lq.locality
        report = quotient_fusion_check(lq.sigma, F, quotient.fusion())
        if not report.ok:
            raise PropertyViolation("theta quotient changed the fusion system",
                                    witness=report.checks)
    prop = is_proper(quotient)
    if not prop.ok:
        raise PropertyViolation("theta quotient is not proper", witness=prop.summary())
    return theta, quotient


# -- normalizer and centralizer localities ----------------------------------------


def _centric_base(L: Locality) -> Locality:
    """Re-point a proper locality at Delta = F^c, expanding first if needed."""
    F = L.fusion()
    c_objs = F.class_sets()["c"]
    c_masks = {P.mask for P in c_objs}
    if c_masks == L.delta.mask_set:
        return L
    if c_masks <= L.delta.mask_set:
        return restrict(L, object_set(L.S, c_objs, fusion=F))
    from .expansion import full_expand

    target = {P.mask: P for P in L.delta.members}
    target.update({P.mask: P for P in c_objs})
    grown = full_expand(L, object_set(L.S, target.values(), fusion=F)).locality
    return restrict(grown, object_set(grown.S, c_objs, fusion=grown.fusion()))


def normalizer_locality(L: Locality, V: Subgroup) -> Locality:
    """Proper locality on N_F(V) over the carrier N_S(V)."""
    F = L.fusion()
    if not F.is_fully_normalized(V):
        raise InputError("normalizer locality needs a fully normalized V")
    if not is_proper(L).ok:
        raise InputError("normalizer locality needs a proper input")
    base = _centric_base(L)
    FV = F.normalizer_system(V)
    ns = V.normalizer(L.S)
    delta_v = object_set(ns, FV.class_sets()["c"], fusion=FV)
    vm = V.mask
    members = [
        g
        for g in base.elements
        if base.s_g_mask(g) & vm == vm
        and V.conjugate(g).mask == vm
        and (base.s_g_mask(g) & ns.mask) in delta_v.mask_set
    ]
    out = Locality(base.group, members, ns, delta_v, L.p)
    prop = is_proper(out)
    if not prop.ok:
        raise PropertyViolation("normalizer locality is not proper",
                                witness=prop.summary())
    if not out.fusion().same_homs(FV):
        raise PropertyViolation("normalizer locality has the wrong fusion system",
                                witness=V)
    return out


def centralizer_locality(L: Locality, V: Subgroup) -> Locality:
    """Proper locality on C_F(V) over the carrier C_S(V)."""
    LV = normalizer_locality(L, V)
    F = L.fusion()
    CF = F.centralizer_system(V)
    cs = V.centralizer(L.S)
    sigma = object_set(cs, CF.class_sets()["c"], fusion=CF)
    G = L.group
    members = [
        g
        for g in LV.elements
        if all(G.conj(x, g) == x for x in V.members())
        and (LV.s_g_mask(g) & cs.mask) in sigma.mask_set
    ]
    out = Locality(G, members, cs, sigma, L.p)
    prop = is_proper(out)
    if not prop.ok:
        raise PropertyViolation("centralizer locality is not proper",
                                witness=prop.summary())
    if not out.fusion().same_homs(CF):
        raise PropertyViolation("centralizer locality has the wrong fusion system",
                                witness=V)
    return out


# -- cores and products -------------------------------------------------------------


def o_p_locality(L: Locality) -> Subgroup:
    """Largest subgroup of S normal in L; descending scan, uniqueness asserted.

    Partial normality alone gives P**g = P whenever P <= S_g: for x in P the
    word (g**-1, x, g) has S_w >= S_{g**-1}, because x in S_g normalizes
    S_g, and S_{g**-1} is an object by (O1).  So x**g is defined and lies
    in P, and P**g = P by counting.  One conjugation sweep per candidate.
    """
    winners = []
    for P in subgroups_below(L.S):
        if P.is_normal_in(L.S) and is_partial_normal(
                L, PartialSubgroup(L, frozenset(P.members()))):
            winners.append(P)
    top = winners[0]
    for P in winners:
        if not P.le(top):
            raise PropertyViolation("normal-in-L subgroups of S lack a unique maximum",
                                    witness=(top, P))
    return top


def _product_set(L: Locality, A, B) -> frozenset:
    out = set()
    for a, b in itertools.product(A, B):
        if L.in_domain((a, b)):
            out.add(L.binary(a, b))
    return frozenset(out)


def _relative_core(L: Locality, N: PartialSubgroup, kind: str) -> PartialSubgroup:
    if not is_partial_normal(L, N):
        raise InputError("relative core needs a partial normal subgroup")
    T = frozenset(x for x in L.S.members() if x in N.members)
    fam = []
    for K in all_partial_normal_subgroups(L):
        if kind == "p":
            if _product_set(L, K.members, T) == N.members:
                fam.append(K)
        else:
            if T <= K.members:
                fam.append(K)
    if not fam:
        raise PropertyViolation("relative core family is empty", witness=kind)
    inter = frozenset.intersection(*[K.members for K in fam])
    out = PartialSubgroup(L, inter)
    if kind == "p" and _product_set(L, inter, T) != N.members:
        raise PropertyViolation("intersection left the O^p family", witness=out)
    if kind == "p'" and not T <= inter:
        raise PropertyViolation("intersection left the O^{p'} family", witness=out)
    return out


def o_p_of(L: Locality, N: PartialSubgroup) -> PartialSubgroup:
    """Intersection of the partial normal K with K(S cap N) = N."""
    return _relative_core(L, N, "p")


def o_pprime_of(L: Locality, N: PartialSubgroup) -> PartialSubgroup:
    """Intersection of the partial normal K containing S cap N."""
    return _relative_core(L, N, "p'")


def product_partial_normal(L: Locality, M: PartialSubgroup,
                           N: PartialSubgroup) -> PartialSubgroup:
    """MN through defined pairwise products; partial normality asserted."""
    if not is_partial_normal(L, M) or not is_partial_normal(L, N):
        raise InputError("product needs partial normal inputs")
    out = PartialSubgroup(L, _product_set(L, M.members, N.members))
    closed = generated_subgroup(L, out.members)
    if closed.members != out.members:
        raise PropertyViolation("product of partial normals is not closed",
                                witness=closed.members - out.members)
    if not is_partial_normal(L, out):
        raise PropertyViolation("product of partial normals is not partial normal",
                                witness=out)
    return out


# -- CLI-facing object-set vocabulary -------------------------------------------------


def resolve_delta_spec(F: FusionSystem, spec: str) -> list:
    """Named object families over F's carrier: cr-closure, c, q, s, all(-nontrivial)."""
    if spec == "all":
        return list(F.subs)
    if spec == "all-nontrivial":
        return [P for P in F.subs if P.order > 1]
    if spec in {"c", "q", "s"}:
        return list(F.class_sets()[spec])
    if spec == "cr-closure":
        masks = {P.mask for P in F.class_sets()["cr"]}
        changed = True
        while changed:
            changed = False
            for Q in F.subs:
                if Q.mask in masks:
                    continue
                if any(m & Q.mask == m for m in masks):
                    masks.add(Q.mask)
                    changed = True
                    continue
                if any(R.mask in masks for R in F.conjugates(Q)):
                    masks.add(Q.mask)
                    changed = True
        return [P for P in F.subs if P.mask in masks]
    raise InputError(f"unknown object-set spec {spec!r}")
