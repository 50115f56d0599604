"""Fusion systems on a finite p-group S.

A system is generated by injective conjugation-like maps between subgroups
of S and closed under composition, restriction, and inversion of the
induced isomorphism onto the image.  Hom-sets are materialized exhaustively
(desk scale), so every categorical statement here is decided by finite set
comparison.

Morphisms are stored as image tuples aligned with the sorted member list of
the domain subgroup; subgroups are bitmasks over the ambient group, exactly
as in permgroup.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property

from . import caps as _caps
from .errors import CapExceeded, InputError, PropertyViolation
from .permgroup import (
    FiniteGroup,
    Subgroup,
    mask_members,
    mask_of,
    subgroups_below,
    sylow_p,
)

__all__ = [
    "FHom",
    "ClassFlags",
    "FusionSystem",
    "conjugation_fusion",
    "fusion_from_group",
    "group_fusion",
    "FusionMap",
    "QuotientFusionReport",
    "quotient_fusion_check",
]


@dataclass(frozen=True)
class FHom:
    """Injective homomorphism between subgroups of S, stored element-wise.

    images[i] is the image of the i-th member of the domain (members sorted
    ascending by ordinal).
    """

    group: FiniteGroup = field(compare=False, repr=False)
    dom_mask: int = 0
    images: tuple = ()

    @property
    def image_mask(self) -> int:
        return mask_of(self.images)

    @cached_property
    def mapping(self) -> dict:  # built once per map; callers only read it
        return dict(zip(mask_members(self.dom_mask), self.images))

    def restrict(self, sub_mask: int) -> "FHom":
        m = self.mapping
        return FHom(self.group, sub_mask, tuple(m[x] for x in mask_members(sub_mask)))


@dataclass(frozen=True)
class ClassFlags:
    centric: bool
    radical: bool
    quasicentric: bool
    subcentric: bool
    fully_normalized: bool
    fully_centralized: bool


def _conj_keys(S: Subgroup, conjugators) -> tuple:
    """Conjugation by each g on S_g = S ∩ S^(g^-1), as distinct (S_g mask,
    images) keys read off S's conjugation table.  S_g is a subgroup of S,
    and conjugation is an injective homomorphism on it.
    """
    table = S.group.s_conjugation(S.mask)
    # a set, not S's mask: a shift of the mask costs its whole length
    s_set = frozenset(table.members)
    return tuple(dict.fromkeys(
        (table.s_g(g), tuple(y for y in table.images(g) if y in s_set))
        for g in conjugators
    ))


class _Derived(tuple):
    """Seed keys (dom_mask, images) taken without _validate: llab's own, or
    caller maps already validated.

    With their inverses and S's inner maps they generate the system: the
    restrictions of their whole composites (FusionSystem._composites).
    llab's own are conjugation keys (_conj_keys) and maps of a closed table:
    both are injective homomorphisms between subgroups of S.
    """


class _Restrictions(tuple):
    """Keys as for _Derived whose restrictions to the subgroups of S are the
    whole system, with no closure: each user argues beside its code that
    they are closed under composition and inversion and land in S.
    """


def conjugation_fusion(S: Subgroup, conjugators) -> "FusionSystem":
    """The fusion system on S generated by conjugation by the given ordinals."""
    return FusionSystem(S, _Derived(_conj_keys(S, conjugators)))


def group_fusion(S: Subgroup, conjugators) -> "FusionSystem":
    """F_S(H) for a subgroup H >= S, from its members or one per C_H(S)-coset.

    F_S(H) = {c_h|P : h in H, P <= S_h} is closed: c_h|P then c_k is c_hk|P
    with P <= S_hk, and c_h|P inverts to c_(h**-1) on P**h.  c_h on S
    depends only on C_H(S)·h.
    """
    return FusionSystem(S, _Restrictions(_conj_keys(S, conjugators)))


def _inner_seeds(S: Subgroup) -> tuple:
    """Conjugation by members of S as keys, once per group and S.

    Keys, not FHoms: an FHom points back at the group, and a cycle through
    the group's memo would keep the group alive past its last user.
    """
    memo = S.group._memo.setdefault("inner_seeds", {})
    got = memo.get(S.mask)
    if got is None:
        got = memo[S.mask] = _conj_keys(S, S.members())
    return got


class _Closed:
    """A closed hom table and every cache computed from it.

    Systems on the same S with equal tables (twins) share one instance, so a
    conjugate list, class flag or subsystem found through one is there for
    all of them.
    """

    __slots__ = ("table", "size", "conj", "flags", "nsys", "csys", "o_p",
                 "__weakref__")

    def __init__(self, table: dict, size: int):
        self.table = table
        self.size = size
        self.conj: dict[int, tuple] = {}
        self.flags: dict[int, tuple] = {}
        self.nsys: dict[int, FusionSystem] = {}
        self.csys: dict[int, FusionSystem] = {}
        self.o_p: int | None = None  # mask of O_p of the system

    def key(self) -> frozenset:
        return frozenset((dom, images) for dom, row in self.table.items()
                         for images in row)


class FusionSystem:
    """Hom-closed category of injective maps between subgroups of S.

    Every table is the set of restrictions of some keys (_restrictions):
    _Restrictions keys, S's inner maps when no maps are given, or the
    composites of caller maps (validated) or _Derived keys with S's inner
    maps (_composites).  A weak-valued registry in the group's memo maps
    seed sets and exact tables to the live _Closed: a seed set seen before
    skips the build, and a table equal to a live one adopts it.
    """

    def __init__(self, S: Subgroup, generators=()):
        cap = _caps.current()
        if S.order > cap.sylow_order:
            raise CapExceeded("fusion carrier order", cap.sylow_order)
        self.group = S.group
        self.S = S
        self.subs = subgroups_below(S)
        self._masks = [h.mask for h in self.subs]
        self._mask_set = set(self._masks)
        if not isinstance(generators, (_Derived, _Restrictions)):
            generators = list(generators)
            for h in generators:
                self._validate(h)
            # no maps: F_S(S), closed by group_fusion's argument with H = S
            generators = (_Derived((h.dom_mask, h.images) for h in generators)
                          if generators else _Restrictions(_inner_seeds(S)))
        generated = isinstance(generators, _Derived)
        seeds = tuple(dict.fromkeys(
            (*_inner_seeds(S), *generators) if generated else generators))
        registry = self.group._memo.setdefault(
            "fusion_tables", weakref.WeakValueDictionary())
        seed_key = (generated, S.mask, frozenset(seeds))
        closed = registry.get(seed_key)
        if closed is None:
            if generated:
                seeds = self._composites(seeds, cap.fusion_maps)
            closed = self._restrictions(seeds, cap.fusion_maps)
            closed = registry.setdefault(("table", S.mask, closed.key()), closed)
            registry[seed_key] = closed
        elif closed.size > cap.fusion_maps:
            raise CapExceeded("fusion homtable", cap.fusion_maps)
        self._closed = closed
        self._table: dict[int, dict[tuple, int]] = closed.table
        self._conj_cache = closed.conj
        self._flag_cache = closed.flags
        self._nsys_cache = closed.nsys
        self._csys_cache = closed.csys

    # -- construction ------------------------------------------------------

    def _validate(self, h: FHom):
        if h.group is not self.group:
            raise InputError("generator map lives in a different carrier group")
        if h.dom_mask & ~self.S.mask or h.image_mask & ~self.S.mask:
            raise InputError("generator map is not between subgroups of S")
        if h.dom_mask not in self._mask_set:
            raise InputError("generator domain is not a subgroup of S")
        if len(h.images) != h.dom_mask.bit_count():
            raise InputError("generator map does not match its domain")
        if len(set(h.images)) != len(h.images):
            raise InputError("generator map is not injective")
        m = h.mapping
        for a, b in itertools.product(mask_members(h.dom_mask), repeat=2):
            if m[self.group.mult(a, b)] != self.group.mult(m[a], m[b]):
                raise InputError("generator map is not a homomorphism")

    def _restrictions(self, keys, cap: int) -> _Closed:
        """Each key restricted to each subgroup of S inside its domain."""
        table: dict[int, dict[tuple, int]] = {m: {} for m in self._masks}
        count = 0
        members = [(m, mask_members(m)) for m in self._masks]
        below: dict[int, list] = {}  # domain -> [(row, positions in domain)]
        for dom, images in keys:
            rows = below.get(dom)
            if rows is None:
                pos = {x: i for i, x in enumerate(mask_members(dom))}
                rows = below[dom] = [(table[m], [pos[x] for x in mem])
                                     for m, mem in members if m & dom == m]
            for row, at in rows:
                sub = tuple(map(images.__getitem__, at))
                if sub not in row:
                    row[sub] = mask_of(sub)
                    count += 1
            if count > cap:
                raise CapExceeded("fusion homtable", cap)
        return _Closed(table, count)

    @staticmethod
    def _composites(keys, cap: int) -> tuple:
        """The whole composites of the keys and their inverses, each on its
        largest domain, as keys; the system they generate is the set of
        restrictions of these.

        A chain of restrictions of generators composes to a restriction of
        the composite of the whole maps, which is defined wherever the chain
        is.  The inverse of a composite is the composite of the inverses in
        reverse order, and the generators are closed under inverses.  So
        the pass sends each key k, with each generator g, to g∘k on
        {x in dom k : k(x) in dom g}: the preimage of a subgroup under an
        injective homomorphism, so a subgroup.  Each key is a map of the
        table, so the cap on maps bounds the pass.
        """
        found = dict.fromkeys(keys)
        for dom, images in keys:
            pairs = sorted(zip(images, mask_members(dom)))
            found[(mask_of(images), tuple(x for _, x in pairs))] = None
        maps = [dict(zip(mask_members(dom), images)) for dom, images in found]
        queue = list(found)
        for dom, images in queue:  # breadth first: the loop reads what it appends
            members = mask_members(dom)
            for g in maps:
                pairs = [(x, g[y]) for x, y in zip(members, images) if y in g]
                key = (mask_of(x for x, _ in pairs), tuple(y for _, y in pairs))
                if key not in found:
                    found[key] = None
                    queue.append(key)
                    if len(found) > cap:
                        raise CapExceeded("fusion homtable", cap)
        return tuple(found)

    # -- queries -----------------------------------------------------------

    def homs(self, P: Subgroup, Q: Subgroup) -> list:
        """All morphisms P -> Q (image inside Q), canonical order."""
        qm = Q.mask
        return [
            FHom(self.group, P.mask, images)
            for images, img in sorted(self._table[P.mask].items())
            if img & ~qm == 0
        ]

    def isos(self, P: Subgroup, Q: Subgroup) -> list:
        qm = Q.mask
        return [
            FHom(self.group, P.mask, images)
            for images, img in sorted(self._table[P.mask].items())
            if img == qm
        ]

    def auts(self, P: Subgroup) -> list:
        return self.isos(P, P)

    def conjugates(self, P: Subgroup) -> tuple:
        """The distinct images of P, canonical order."""
        if P.mask not in self._conj_cache:
            masks = sorted(
                set(self._table[P.mask].values()),
                key=lambda m: Subgroup(self.group, m).key(),
            )
            self._conj_cache[P.mask] = tuple(Subgroup(self.group, m) for m in masks)
        return self._conj_cache[P.mask]

    def is_fully_normalized(self, P: Subgroup) -> bool:
        n = P.normalizer(self.S).order
        return all(Q.normalizer(self.S).order <= n for Q in self.conjugates(P))

    def is_fully_centralized(self, P: Subgroup) -> bool:
        c = P.centralizer(self.S).order
        return all(Q.centralizer(self.S).order <= c for Q in self.conjugates(P))

    def same_homs(self, other: "FusionSystem") -> bool:
        if self.S.mask != other.S.mask or self.group is not other.group:
            return False
        if self._table is other._table:
            return True
        return all(
            set(self._table[m]) == set(other._table[m]) for m in self._masks
        )

    # -- subsystems ----------------------------------------------------------

    def _harvest(self, cache: dict, um: int, carrier: Subgroup,
                 pointwise: bool) -> "FusionSystem":
        """The maps on domains >= U fixing U (setwise or pointwise),
        restricted to the subgroups of `carrier`.

        Cached under `um`. A subsystem equal to this system is cached as None
        and answered with self: a twin in the shared cache would tie the
        table to itself in a reference cycle, keeping the whole group alive
        until the cyclic garbage collector runs.
        """
        if um not in cache:
            fixed = mask_members(um)
            keys = []
            for dom in self._masks:
                if dom & um != um:
                    continue
                at = [i for i, x in enumerate(mask_members(dom)) if um >> x & 1]
                for images in self._table[dom]:
                    image = [images[i] for i in at]
                    if (image == fixed) if pointwise else (mask_of(image) == um):
                        keys.append((dom, images))
            system = FusionSystem(carrier, _Restrictions(keys))
            cache[um] = None if system._closed is self._closed else system
        got = cache[um]
        return self if got is None else got

    def normalizer_system(self, U: Subgroup) -> "FusionSystem":
        """N_F(U) on N_S(U): the phi: P -> Q that extend to a map of F on PU
        fixing U.

        Read with no closure as the restrictions to subgroups P <= N_S(U)
        of the maps h of F on domains R >= U with h(U) = U.  Each h|P is in
        N_F(U), extended by h|PU, and lands in N_S(h(U)) = N_S(U).  Each map
        of N_F(U) is one: PU is a subgroup, and F's table holds every map on
        it.  They are closed: h2∘h1 on h1**-1(dom h2) >= U and h1**-1 on
        h1(R) are maps of F fixing U.
        """
        return self._harvest(self._nsys_cache, U.mask, U.normalizer(self.S), False)

    def centralizer_system(self, U: Subgroup) -> "FusionSystem":
        """C_F(U) on C_S(U): as normalizer_system, fixing U pointwise."""
        return self._harvest(self._csys_cache, U.mask, U.centralizer(self.S), True)

    def is_normal_in_system(self, T: Subgroup) -> bool:
        """T normal: the U-fixing subsystem on N_S(T) is all of the system."""
        if T.normalizer(self.S).mask != self.S.mask:
            return False
        return self.same_homs(self.normalizer_system(T))

    def o_p(self) -> Subgroup:
        """Largest subgroup normal in the whole system.

        Computed once per closed table; twins reuse the answer.
        """
        if self._closed.o_p is None:
            self._closed.o_p = self._find_o_p().mask
        return Subgroup(self.group, self._closed.o_p)

    def _find_o_p(self) -> Subgroup:
        # The normal subgroups of any system, saturated or not, are
        # join-closed.  Let T1, T2 be normal.  F is generated by the maps
        # phi: P -> Q with T1 <= P and T1**phi = T1, and each such phi is a
        # chain of restrictions of maps that are defined on T2 and fix it
        # (S's inner maps among them).  T2 is normal in S, so each link
        # extends over T2, and the chain extends phi to P*T2, fixing T2 and,
        # as phi does, T1.  So the maps fixing T1*T2 generate F.  subs runs
        # largest first, so the first normal subgroup contains every other:
        # its join with one is normal and no larger.  The trivial subgroup
        # is always normal.  is_normal_in_system opens with N_S(T) = S, so T
        # needs no separate test of normality in S.
        return next(T for T in self.subs if self.is_normal_in_system(T))

    # -- classification ------------------------------------------------------

    def _class_flags(self, P: Subgroup) -> tuple:
        """(centric, radical, quasicentric, subcentric) for P's class."""
        conj = self.conjugates(P)
        key = min(Q.mask for Q in conj)
        if key in self._flag_cache:
            return self._flag_cache[key]
        centric = all(Q.centralizer(self.S).le(Q) for Q in conj)
        fn = [Q for Q in conj if self.is_fully_normalized(Q)]
        fc = [Q for Q in conj if self.is_fully_centralized(Q)]
        radical = False
        subcentric = False
        if fn:
            Q = fn[0]
            core = self.normalizer_system(Q).o_p()
            radical = core.mask == Q.mask
            subcentric = all(
                R.centralizer(self.S).le(R) for R in self.conjugates(core)
            )
        quasicentric = False
        if fc:
            Q = fc[0]
            cs = self.centralizer_system(Q)
            quasicentric = cs.same_homs(FusionSystem(cs.S))
        flags = (centric, radical, quasicentric, subcentric)
        self._flag_cache[key] = flags
        return flags

    def classify(self, P: Subgroup) -> ClassFlags:
        centric, radical, quasicentric, subcentric = self._class_flags(P)
        return ClassFlags(
            centric=centric,
            radical=radical,
            quasicentric=quasicentric,
            subcentric=subcentric,
            fully_normalized=self.is_fully_normalized(P),
            fully_centralized=self.is_fully_centralized(P),
        )

    def class_sets(self) -> dict:
        """Subgroup lists for the four classes, canonical order each."""
        out = {"c": [], "cr": [], "q": [], "s": []}
        for P in self.subs:
            centric, radical, quasicentric, subcentric = self._class_flags(P)
            if centric:
                out["c"].append(P)
            if centric and radical:
                out["cr"].append(P)
            if quasicentric:
                out["q"].append(P)
            if subcentric:
                out["s"].append(P)
        return out

    def is_f_closed(self, gamma) -> bool:
        """Nonempty, conjugation-invariant, and closed under overgroups."""
        masks = {P.mask for P in gamma}
        if not masks:
            return False
        for m in masks:
            if m not in self._mask_set:
                return False
            for Q in self.conjugates(Subgroup(self.group, m)):
                if Q.mask not in masks:
                    return False
            for over in self._masks:
                if (over & m) == m and over not in masks:
                    return False
        return True

    def is_inductive(self, gamma=None) -> bool:
        """Every member maps onto each fully normalized conjugate by a
        morphism defined on its whole S-normalizer."""
        pool = self.subs if gamma is None else list(gamma)
        for U in pool:
            nu = U.normalizer(self.S)
            for V in self.conjugates(U):
                if not self.is_fully_normalized(V):
                    continue
                nv = V.normalizer(self.S)
                ok = any(
                    h.restrict(U.mask).image_mask == V.mask
                    for h in self.homs(nu, nv)
                )
                if not ok:
                    return False
        return True

    def is_cr_generated(self) -> bool:
        """The centric-radical automorphisms already generate everything."""
        gens = []
        for R in self.class_sets()["cr"]:
            gens.extend((h.dom_mask, h.images) for h in self.auts(R))
        return self.same_homs(FusionSystem(self.S, _Derived(gens)))

    def good_conjugate(self, U: Subgroup) -> Subgroup:
        """A conjugate V with V and the core of its normalizer system both
        fully normalized; deterministic choice, existence asserted."""
        for V in self.conjugates(U):
            if not self.is_fully_normalized(V):
                continue
            core = self.normalizer_system(V).o_p()
            if self.is_fully_normalized(core):
                return V
        raise PropertyViolation(
            "no conjugate has both itself and its normalizer core fully normalized",
            witness=U.mask,
        )

    def __repr__(self):
        return f"FusionSystem(|S|={self.S.order}, subgroups={len(self.subs)})"


def fusion_from_group(G: FiniteGroup, p: int) -> FusionSystem:
    """The fusion system on a Sylow p-subgroup induced by conjugation in G."""
    S = sylow_p(G.top, p)
    # c_g depends only on C_G(S)·g; one g per coset gives the same key set
    # as sweeping all of G
    return group_fusion(S, G.s_conjugation(S.mask).coset_representatives())


# -- quotient compatibility ---------------------------------------------------


@dataclass
class FusionMap:
    """Carrier-level map between two systems: S-member -> S̄-member."""

    source: FusionSystem
    target: FusionSystem
    mapping: dict

    def __post_init__(self):
        smem = set(self.source.S.members())
        if set(self.mapping) != smem:
            raise InputError("carrier map must be defined exactly on S")
        if set(self.mapping.values()) != set(self.target.S.members()):
            raise InputError("carrier map must be onto the target S")
        g, gb = self.source.group, self.target.group
        for a, b in itertools.product(self.source.S.members(), repeat=2):
            if self.mapping[g.mult(a, b)] != gb.mult(self.mapping[a], self.mapping[b]):
                raise InputError("carrier map is not a homomorphism")

    @property
    def kernel_mask(self) -> int:
        return sum(1 << x for x, y in self.mapping.items() if y == 0)

    def push_mask(self, mask: int) -> int:
        return mask_of(self.mapping[x] for x in mask_members(mask))

    def push_hom(self, h: FHom) -> FHom | None:
        """Induced map on images; None when it is not well defined."""
        m = h.mapping
        tgt_dom = self.push_mask(h.dom_mask)
        images = {}
        for x in mask_members(h.dom_mask):
            bx = self.mapping[x]
            fx = self.mapping[m[x]]
            if images.setdefault(bx, fx) != fx:
                return None
        image_tuple = tuple(images[b] for b in mask_members(tgt_dom))
        if len(set(image_tuple)) != len(image_tuple):
            return None
        return FHom(self.target.group, tgt_dom, image_tuple)


@dataclass
class QuotientFusionReport:
    ok: bool
    checks: dict
    witnesses: list

    def summary(self) -> str:
        bad = [k for k, v in self.checks.items() if v is False]
        return "quotient fusion: pass" if self.ok else f"quotient fusion: FAIL {bad}"


def quotient_fusion_check(
    lam: FusionMap, F: FusionSystem, Fbar: FusionSystem
) -> QuotientFusionReport:
    """Verify the fusion-side facts a quotient map must satisfy.

    Instance-wise over all subgroups of S containing the kernel: the map is
    fusion-preserving with surjective hom-maps, fully-normalized status
    corresponds, normalizer cores map into normalizer cores, and centric /
    centric-radical membership pulls back.
    """
    if lam.source is not F or lam.target is not Fbar:
        raise InputError("map endpoints do not match the given systems")
    K = lam.kernel_mask
    over = [P for P in F.subs if (P.mask & K) == K]
    checks = {}
    witnesses = []

    def note(name, good, witness=None):
        checks[name] = checks.get(name, True) and good
        if not good and witness is not None and len(witnesses) < 32:
            witnesses.append((name, witness))

    for P in over:
        pb = Subgroup(Fbar.group, lam.push_mask(P.mask))
        for Q in over:
            qb = Subgroup(Fbar.group, lam.push_mask(Q.mask))
            pushed = set()
            for h in F.homs(P, Q):
                hb = lam.push_hom(h)
                good = hb is not None and hb.images in Fbar._table[hb.dom_mask]
                note("fusion_preserving", good, (P.mask, h.images))
                if hb is not None:
                    pushed.add(hb.images)
            target_homs = {h.images for h in Fbar.homs(pb, qb)}
            note("hom_surjectivity", target_homs <= pushed, (P.mask, Q.mask))

    for P in over:
        pb = Subgroup(Fbar.group, lam.push_mask(P.mask))
        note(
            "fully_normalized_correspondence",
            F.is_fully_normalized(P) == Fbar.is_fully_normalized(pb),
            P.mask,
        )
        core = F.normalizer_system(P).o_p()
        core_bar = Fbar.normalizer_system(pb).o_p()
        note(
            "core_image_bound",
            lam.push_mask(core.mask) & ~core_bar.mask == 0,
            P.mask,
        )
        bar_flags = Fbar._class_flags(pb)
        here_flags = F._class_flags(P)
        if bar_flags[0]:
            note("centric_preimage", here_flags[0], P.mask)
        if bar_flags[0] and bar_flags[1]:
            note("centric_radical_preimage", here_flags[0] and here_flags[1], P.mask)

    for name in (
        "fusion_preserving",
        "hom_surjectivity",
        "fully_normalized_correspondence",
        "core_image_bound",
        "centric_preimage",
        "centric_radical_preimage",
    ):
        checks.setdefault(name, True)
    return QuotientFusionReport(
        ok=all(checks.values()), checks=checks, witnesses=witnesses
    )
