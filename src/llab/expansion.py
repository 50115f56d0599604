"""Growth of a locality's object family, one conjugacy class at a time.

Starting from (L, Delta, S) and a subgroup R of S whose strict overgroups
are already objects, the carrier is rebuilt so that Delta can absorb the
full conjugacy class of R.  Candidate new elements are equivalence classes
of triples (x**-1, h, y) with h normalizing R and x, y drawn from witness
sets attached to the conjugates of R.  A class that meets the domain
collapses onto the element of L it computes to; classes that never meet
the domain, when any exist, are adjoined as fresh elements realized by
their ambient products.

A fact that follows from how the growth is built, or from the theory of
elementary expansions (Chermak, Acta Math. 211 (2013); Henke, Trans. AMS 371
(2019)), is decided by its argument, written beside the code, and not
checked again.  Each step checks the witness sets, the seed's admissibility
and the fresh elements' conjugation records; from the records, the grown
carrier keeps its base's fusion system object and restricts to its base.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, PropertyViolation
from .fusion import group_fusion
from .locality import (
    Locality,
    LocalityQuotient,
    ObjectSet,
    ProperReport,
    is_proper,
    normalizer_in,
    object_set,
    quotient_locality,
    subgroup_in_locality,
)
from .partial import (
    PGHom,
    PartialSubgroup,
    is_partial_normal,
    normal_closure,
)
from .permgroup import Subgroup, is_characteristic_p, mask_of, subgroups_below

__all__ = [
    "SeedReport",
    "ExpansionSeed",
    "PhiTriple",
    "TildeClass",
    "ElementaryExpansion",
    "FullExpansion",
    "check_seed",
    "build_y_sets",
    "make_seed",
    "sim_related",
    "canonical_triple",
    "approx_class",
    "elementary_expand",
    "full_expand",
    "lift_normal",
    "check_unique_iso",
    "expand_quotient",
]


# -- seed admissibility ---------------------------------------------------------


@dataclass
class SeedReport:
    """Outcome of the three admissibility conditions for a growth seed."""

    ok: bool
    strict_overgroups_in_delta: bool
    rep_and_core_fully_normalized: bool
    normalizer_witnesses_fusion: bool
    details: dict
    # N_L(R) as an ambient subgroup when it is one; make_seed reuses it
    normalizer: Subgroup | None = field(default=None, repr=False)


def check_seed(L: Locality, R: Subgroup) -> SeedReport:
    """Admissibility of R for growing L's object family.

    Three legs: every strict overgroup of R inside S is already an object;
    R and the core of its normalizer subsystem are both fully normalized;
    the normalizer of R in L is a genuine subgroup whose conjugation
    fusion on N_S(R) recovers the normalizer subsystem.  On a proper
    carrier with R subcentric the first two legs force the third, with
    N_L(R) of characteristic p (Chermak 2013; Henke 2019); that is not
    checked again, and the report states what was found.
    """
    if R.group is not L.group or not R.le(L.S):
        raise InputError("seed subgroup must lie inside S")
    F = L.fusion()
    details: dict = {}

    overs_ok = True
    for Q in subgroups_below(L.S):
        if R.le(Q) and Q.mask != R.mask and Q.mask not in L.delta.mask_set:
            overs_ok = False
            details["overgroup_outside_delta"] = Q.mask
            break

    fn_ok = F.is_fully_normalized(R)
    if fn_ok:
        core = F.normalizer_system(R).o_p()
        details["normalizer_core_order"] = core.order
        if not F.is_fully_normalized(core):
            fn_ok = False
            details["core_not_fully_normalized"] = core.mask
    else:
        details["not_fully_normalized"] = R.mask

    part = normalizer_in(L, R)
    sub_ok, witness = subgroup_in_locality(L, part.members)
    fusion_ok = False
    M = None
    if sub_ok:
        # every pair of the set is in D with its product in the set, so the
        # set is closed under G's product: an ambient subgroup, unswept
        M = Subgroup(L.group, mask_of(part.members))
        details["normalizer_order"] = M.order
        details["normalizer_characteristic_p"] = is_characteristic_p(M, L.p)
        # M >= N_S(R) is a group, so its fusion is read as restrictions
        fusion_ok = group_fusion(R.normalizer(L.S), M.members()).same_homs(
            F.normalizer_system(R)
        )
        if not fusion_ok:
            details["normalizer_fusion_mismatch"] = R.mask
    else:
        details["normalizer_not_subgroup"] = witness
    ok = overs_ok and fn_ok and fusion_ok
    return SeedReport(ok, overs_ok, fn_ok, fusion_ok, details, M)


# -- witness sets and triples ---------------------------------------------------


def build_y_sets(L: Locality, R: Subgroup) -> dict:
    """Witness sets Y_V = {y in L : R**y = V and N_S(V) pulls back along y}.

    Keyed by conjugate mask.  Once the strict-overgroup condition holds
    every set is guaranteed nonempty, so an empty one raises.  Only the y
    with R <= S_y are conjugated: R**y lies in S iff R <= S_y, and the
    sets are read only at conjugates V <= S.
    """
    table = L.group.s_conjugation(L.S.mask)
    r = R.mask
    carried: dict[int, list[int]] = {}
    for y in L.elements:
        if r & table.s_g(y) == r:
            carried.setdefault(table.conjugate_mask(r, y), []).append(y)
    out = {}
    for V in L.fusion().conjugates(R):
        ns = V.normalizer(L.S).mask
        ys = [y for y in carried.get(V.mask, ())
              if ns & L.s_g_mask(L.inv(y)) == ns]
        if not ys:
            raise PropertyViolation(
                "empty witness set for a conjugate of the seed", witness=V.mask
            )
        out[V.mask] = tuple(ys)
    return out


@dataclass(frozen=True)
class PhiTriple:
    """Candidate triple: the word is (x**-1, h, y) with endpoints (U, V).

    x witnesses U (it carries R onto U's position), y witnesses V, and h
    normalizes R inside L.
    """

    x: int
    h: int
    y: int
    u_mask: int
    v_mask: int


@dataclass
class ExpansionSeed:
    """Class data for one growth step: the conjugates of R, the normalizer
    M of R inside L, witness sets, and a fixed transversal choice."""

    locality: Locality
    R: Subgroup
    conjugates: tuple
    M: Subgroup
    ysets: dict
    chosen_y: dict

    def __post_init__(self):
        self._m_set = frozenset(self.M.members())
        self._endpoint = {}
        for mask, ys in self.ysets.items():
            for y in ys:
                self._endpoint[y] = mask

    @property
    def group(self):
        return self.locality.group

    def triple(self, x: int, h: int, y: int) -> PhiTriple:
        if h not in self._m_set:
            raise InputError("middle entry must normalize the seed inside L")
        try:
            u, v = self._endpoint[x], self._endpoint[y]
        except KeyError as exc:
            raise InputError("outer entries must come from the witness sets") from exc
        return PhiTriple(x, h, y, u, v)

    def word(self, phi: PhiTriple) -> tuple:
        return (self.group.inv(phi.x), phi.h, phi.y)

    def fold(self, phi: PhiTriple) -> int:
        G = self.group
        return G.mult(G.mult(G.inv(phi.x), phi.h), phi.y)


def make_seed(L: Locality, R: Subgroup) -> ExpansionSeed:
    report = check_seed(L, R)
    if not report.ok:
        raise InputError(f"growth seed rejected: {report}")
    conjugates = L.fusion().conjugates(R)
    ysets = build_y_sets(L, R)
    # The identity is in Y_R (R**1 = R, S_1 = S) and is the least ordinal,
    # so it is chosen at R.
    chosen = {m: min(ys) for m, ys in ysets.items()}
    # a passing report has the normalizer's fusion leg, so it built N_L(R)
    return ExpansionSeed(L, R, conjugates, report.normalizer, ysets, chosen)


def sim_related(seed: ExpansionSeed, a: PhiTriple, b: PhiTriple) -> bool:
    """Same endpoints, and the middles match after sliding the outer slots."""
    if a.u_mask != b.u_mask or a.v_mask != b.v_mask:
        return False
    G = seed.group
    left = G.mult(G.mult(b.x, G.inv(a.x)), a.h)
    right = G.mult(b.h, G.mult(b.y, G.inv(a.y)))
    return left == right


def _translate(seed: ExpansionSeed, phi: PhiTriple, x: int, y: int) -> PhiTriple:
    # unique equivalent triple with prescribed outer slots
    G = seed.group
    h = G.mult(G.mult(G.mult(x, G.inv(phi.x)), phi.h), G.mult(phi.y, G.inv(y)))
    if h not in seed._m_set:
        raise PropertyViolation("translated middle escaped the normalizer", witness=h)
    return PhiTriple(x, h, y, phi.u_mask, phi.v_mask)


def canonical_triple(seed: ExpansionSeed, phi: PhiTriple) -> PhiTriple:
    """The unique equivalent triple whose outer slots come from the transversal."""
    return _translate(seed, phi, seed.chosen_y[phi.u_mask], seed.chosen_y[phi.v_mask])


# -- classes and the grown locality ---------------------------------------------


@dataclass(frozen=True)
class TildeClass:
    """One element of the grown locality.

    kind "embedded": the class computes to an element already in the base.
    kind "pure": adjoined fresh; `rep` is its transversal representative.
    `element` is the realizing ambient ordinal either way.
    """

    kind: str
    element: int
    rep: PhiTriple | None = field(default=None, compare=False)


@dataclass
class ElementaryExpansion:
    """Result of one growth step, with the class tables used to build it."""

    locality: Locality
    seed: ExpansionSeed | None
    created: dict
    class_index: dict
    element_class: dict
    trace: dict

    @property
    def base(self) -> Locality:
        return self.seed.locality if self.seed is not None else self.locality


def elementary_expand(L: Locality, R: Subgroup) -> ElementaryExpansion:
    """Grow L's object family by the conjugacy class of R.

    A no-op when R is already an object.  Otherwise the admissibility
    report must pass, and the conjugation records of the fresh elements are
    checked against their triple words.  From the records the grown
    locality takes L's fusion system object, keeps the normalizer of R and
    restricts back to L, as argued below.  When L is proper and N_L(R) has
    characteristic p, the grown locality takes L's verdict and is proper by
    the argument below (Chermak 2013; Henke 2019), with no sweep over its
    objects; from any other base its properness is computed in full.  The
    trace reports it.
    """
    if R.group is not L.group or not R.le(L.S):
        raise InputError("seed subgroup must lie inside S")
    if R.mask in L.delta.mask_set:
        eclass = {g: TildeClass("embedded", g) for g in L.elements}
        trace = {
            "noop": True,
            "r_order": R.order,
            "elements_before": len(L.elements),
            "elements_after": len(L.elements),
        }
        return ElementaryExpansion(L, None, {}, {}, eclass, trace)

    seed = make_seed(L, R)
    G = L.group
    F = L.fusion()

    class_index: dict = {}
    embedded: dict = {}
    created: dict = {}
    sim_classes = 0
    for U in seed.conjugates:
        for V in seed.conjugates:
            for h in sorted(seed._m_set):
                can = PhiTriple(
                    seed.chosen_y[U.mask], h, seed.chosen_y[V.mask], U.mask, V.mask
                )
                sim_classes += 1
                # Every representative of the class folds to f = x**-1 h y.
                # When the word w of can misses D, f is new and S_f = U.
                # Every strict overgroup of U is an object (see Delta+ below).
                # Q = N_{S_f}(U) lies in N_S(U), inside S_(x**-1), and Q**f
                # in N_S(V), inside S_(y**-1), so Q <= S_w.  Q is no object,
                # so Q = U and S_f = U (normalizers grow in p-groups).  Then
                # f in L would put U in Delta by (O1) and w in D, so no
                # other representative lies in D (its product would be f),
                # and an earlier class (U', h', V') folding to f has
                # U' = S_f, V' = U**f and h' = x f y**-1 = h.
                f = seed.fold(can)
                if L.in_domain(seed.word(can)):
                    cls = embedded.get(f)
                    if cls is None:
                        cls = TildeClass("embedded", f, rep=can)
                        embedded[f] = cls
                else:
                    created[f] = can
                    cls = TildeClass("pure", f, rep=can)
                class_index[(U.mask, h, V.mask)] = cls

    element_class = {}
    for g in L.elements:
        element_class[g] = embedded.get(g, TildeClass("embedded", g))
    for fresh, can in created.items():
        element_class[fresh] = class_index[(can.u_mask, can.h, can.v_mask)]
    singletons = len(L.elements) - len(embedded)

    # Delta+ is Delta and R's class, closed under overgroups: a strict
    # overgroup P of a conjugate V has N_P(V) > V, and for a witness y of V,
    # c_(y**-1) carries N_P(V) <= N_S(V) <= S_(y**-1) onto a strict
    # overgroup of R, an object by check_seed; Delta is F-closed, so N_P(V),
    # and P, are objects.
    deltaplus = object_set(L.S, [*L.delta.members, *seed.conjugates])
    grown = Locality(G, list(L.elements) + sorted(created), L.S, deltaplus, L.p)
    for fresh, can in created.items():
        if grown.s_g_mask(fresh) != L.s_word_mask(seed.word(can)):
            raise PropertyViolation(
                "conjugation record mismatch on a fresh element", witness=fresh
            )
    # With S_f = S_w, (O1) puts S_w in Delta+, so w = (x**-1, h, y) is in
    # D(grown) with product f, and c_f is c_(x**-1), c_h, c_y in turn, a
    # composite of restrictions of F-maps: grown's fusion system is F, and
    # it is handed on.  For L a restriction of G whose objects hold F^cr, F
    # is F_S(G) itself, handed on by Alperin's theorem (`locality_from_group`).
    # N_grown(R) = N_L(R): a fresh f normalizing R has R <= S_f = U, so
    # U = R = V and w = (1, h, 1), the identity being chosen at R; S_w is
    # S_h, an object, so w would be in D.
    # The cut of grown to Delta is L: a fresh f has S_f = U, a conjugate of
    # R, which is not in the F-closed Delta.
    grown._fusion_cache = F
    # Properness is handed on when L is proper and N_L(R) has characteristic p.
    # (PL1) F is handed on, and L proper puts F^cr inside Delta <= Delta+.
    # (PL2) at an old object P: a fresh f has S_f = U, a conjugate of R, so
    # P <= S_f would make U an object, and U is not in the F-closed Delta; no
    # fresh element normalizes P, and N_grown(P) = N_L(P).  At a new object
    # V, a conjugate of R: N_grown(R) = N_L(R) as above, and for a witness y
    # of V, R <= S_y with R an object of grown, so c_y carries N_grown(R)
    # isomorphically onto N_grown(V) (Chermak, Part I); characteristic p is
    # an isomorphism invariant.  Any other base gets the full computation.
    if is_proper(L).ok and is_characteristic_p(seed.M, L.p):
        grown._proper_report = ProperReport(ok=True)
    grown_proper = is_proper(grown).ok

    trace = {
        "noop": False,
        "r_order": R.order,
        "r_class_size": len(seed.conjugates),
        "sim_classes": sim_classes,
        "embedded": len(embedded),
        "singletons": singletons,
        "pure": len(created),
        "elements_before": len(L.elements),
        "elements_after": len(grown.elements),
        "checks": {
            "restriction": True,
            "normalizer_preserved": True,
            "fusion_preserved": True,
            "proper": grown_proper,
            "conjugation_records": True,
        },
    }
    return ElementaryExpansion(grown, seed, created, class_index, element_class, trace)


# -- class arithmetic -----------------------------------------------------------


def approx_class(exp: ElementaryExpansion, item) -> TildeClass:
    """The class of an element of the grown locality, or of a raw triple."""
    if isinstance(item, PhiTriple):
        if exp.seed is None:
            raise InputError("a no-op growth step has no triples")
        can = canonical_triple(exp.seed, item)
        return exp.class_index[(can.u_mask, can.h, can.v_mask)]
    if item not in exp.element_class:
        raise InputError(f"{item!r} is not an element of the grown locality")
    return exp.element_class[item]


def _reps_with_left(exp: ElementaryExpansion, cls: TildeClass, u_mask: int):
    """Triple representatives of cls whose left endpoint is u_mask, lazily.

    Transversal-aligned representatives come first so searches stay cheap:
    the outer slots x, y run through their witness sets once per group
    (x chosen, y chosen), (x chosen, y not), (x not, y chosen), (x not,
    y not), each in witness-set order.
    """
    seed = exp.seed
    G = seed.group
    L0 = seed.locality
    if cls.kind == "pure":
        rep = cls.rep
        if rep.u_mask != u_mask:
            return
        v_mask = rep.v_mask

        def make(xb, yb):
            return _translate(seed, rep, xb, yb)
    else:
        # Embedded classes are carried by base elements g only: approx_class
        # is the one source of classes here.  With U <= S_g, c_g|U is an
        # F-map, so V = U**g is a conjugate of R and has witnesses.  The
        # word (xb, g, yb**-1) has T**(xb**-1) in S_w for T = N_{S_g}(U),
        # and T > U since S_g is an object and U, conjugate to R, is not;
        # T**(xb**-1) > R is an object, so h = xb g yb**-1 is in L and
        # normalizes R.
        g = cls.element
        if u_mask & L0.s_g_mask(g) != u_mask:
            return
        v_mask = G.s_conjugation(L0.S.mask).conjugate_mask(u_mask, g)

        def make(xb, yb):
            return PhiTriple(xb, G.mult(G.mult(xb, g), G.inv(yb)), yb, u_mask, v_mask)
    cx, cy = seed.chosen_y[u_mask], seed.chosen_y[v_mask]
    for x_off, y_off in ((False, False), (False, True), (True, False), (True, True)):
        for xb in seed.ysets[u_mask]:
            if (xb != cx) == x_off:
                for yb in seed.ysets[v_mask]:
                    if (yb != cy) == y_off:
                        yield make(xb, yb)


def _gamma_forms(exp: ElementaryExpansion, word, limit: int) -> list:
    """Up to `limit` chained representative threadings of the word."""
    seed = exp.seed
    if seed is None or not word:
        return []
    for c in word:
        if not isinstance(c, TildeClass):
            raise InputError("entries must be classes of this growth step")
    out = []
    for U0 in seed.conjugates:
        _extend_forms(exp, word, limit, out, [], U0.mask)
        if len(out) >= limit:
            break
    return out


def _extend_forms(exp: ElementaryExpansion, word, limit: int, out: list,
                  prefix: list, um: int) -> None:
    """Append to `out` the threadings of the word that start with `prefix`,
    whose next left endpoint is `um`, until `out` holds `limit` of them.

    Each representative (x**-1, h, y) carries its left endpoint onto R,
    fixes R and carries R onto its right endpoint, the next one's left
    endpoint, so the chained word keeps the first endpoint inside S.  A
    module function, not a closure that calls itself: that closure would
    hold its own cell, a cycle keeping the growth step and its group alive
    until the cycle collector runs.
    """
    if len(out) >= limit:
        return
    if len(prefix) == len(word):
        out.append(tuple(prefix))
        return
    for phi in _reps_with_left(exp, word[len(prefix)], um):
        _extend_forms(exp, word, limit, out, prefix + [phi], phi.v_mask)
        if len(out) >= limit:
            return


def _thread_value(exp: ElementaryExpansion, form) -> int:
    """Collapse a threading to its value: outer slots survive, middles fold.

    A link a.y * b.x**-1 lies in M = N_L(R) by the witness lemma: for x, y
    in Y_V, Q = N_S(V)**(y**-1) lies in S_(y, x**-1) and strictly above R
    (R < S), so Q is an object and y x**-1 is in L, normalizing R.  M is a
    group, so the folded middle lies in M too.
    """
    seed = exp.seed
    G = seed.group
    mids = [form[0].h]
    for a, b in zip(form, form[1:]):
        mids.append(G.mult(a.y, G.inv(b.x)))
        mids.append(b.h)
    return seed.fold(
        PhiTriple(form[0].x, G.word(mids), form[-1].y, form[0].u_mask, form[-1].v_mask)
    )


# -- full growth ----------------------------------------------------------------


@dataclass
class FullExpansion:
    """Chain of growth steps from `base` up to a target object family."""

    locality: Locality
    base: Locality
    steps: tuple

    def trace(self) -> list:
        return [s.trace for s in self.steps]


def _absorb(L: Locality, target: ObjectSet) -> tuple[Locality, tuple]:
    """Grow L class by class until its object family equals the target.

    Missing classes are absorbed largest first; each representative is
    chosen fully normalized together with the core of its normalizer
    subsystem.
    """
    F = L.fusion()
    steps = []
    cur = L
    while True:
        missing = target.mask_set - cur.delta.mask_set
        if not missing:
            return cur, tuple(steps)
        cands = sorted((Subgroup(L.group, m) for m in missing), key=lambda P: P.key())
        R = F.good_conjugate(cands[0])
        # R is F-conjugate to a missing subgroup and cur's Delta is closed
        # under cur's fusion system F, so the step is no no-op; it adds R's
        # class alone (Delta+ in elementary_expand), so `missing` shrinks.
        step = elementary_expand(cur, R)
        steps.append(step)
        cur = step.locality


def _validated_target(L: Locality, deltaplus) -> ObjectSet:
    F = L.fusion()
    if not isinstance(deltaplus, ObjectSet):
        deltaplus = object_set(L.S, deltaplus, fusion=F)
    else:
        if deltaplus.S.group is not L.group or deltaplus.S.mask != L.S.mask:
            raise InputError("target family lives on a different carrier")
        if not F.is_f_closed(deltaplus.members):
            raise InputError("target family is not closed under the fusion maps")
    if not L.delta.mask_set <= deltaplus.mask_set:
        raise InputError("target family must contain the current objects")
    return deltaplus


def full_expand(L: Locality, deltaplus) -> FullExpansion:
    """Grow a proper locality until its object family equals `deltaplus`.

    The target must be closed under the fusion maps, contain the current
    objects, and stay inside the subcentric range.  The result restricts
    back to L, has L's fusion system object, and is generated by L as a
    partial group; each step keeps all three by construction.
    """
    target = _validated_target(L, deltaplus)
    smasks = {P.mask for P in L.fusion().class_sets()["s"]}
    if not target.mask_set <= smasks:
        raise InputError("target family leaves the subcentric range")
    if not is_proper(L).ok:
        raise InputError("growth needs a proper locality")
    cur, steps = _absorb(L, target)
    # Each step's fresh f has a word w = (x**-1, h, y) over its base, in the
    # grown domain with product f; axiom (3) folds w by pairs, so f lies in
    # the partial subgroup the base generates, and by induction L generates
    # cur.  Each step hands on its base's FusionSystem.  A fresh f has S_f
    # a conjugate of its step's seed, outside the step base's objects and so
    # outside L's: each cut to L's objects is the cut of the step before,
    # down to L itself.  L is proper, so no properness check is needed.
    return FullExpansion(locality=cur, base=L, steps=steps)


# -- partial normal subgroups across a growth -----------------------------------


def _check_extension_pair(L: Locality, Lplus: Locality) -> None:
    if (
        Lplus.group is not L.group
        or Lplus.S.mask != L.S.mask
        or Lplus.p != L.p
        or not L.delta.mask_set <= Lplus.delta.mask_set
    ):
        raise InputError("the two localities are not an extension pair")
    if Lplus._carrier & L.delta.cut != L._carrier:
        raise InputError("the larger locality does not restrict to the smaller")


def lift_normal(L: Locality, Lplus: Locality, N: PartialSubgroup) -> PartialSubgroup:
    """Carry a partial normal subgroup of L up a growth.

    The lift is the normal closure of N in the grown locality.  It must
    cut back to N exactly, which is verified; S lies in L, so the lift
    then meets S where N does.
    """
    _check_extension_pair(L, Lplus)
    if N.pg is not L:
        raise InputError("the subgroup must live in the base locality")
    if not is_partial_normal(L, N):
        raise InputError("lift needs a partial normal subgroup")
    # No guard that K = <N and its conjugates in Lplus> is partial normal
    # is needed.  The normal closure is the least partial normal subgroup
    # containing N, which is K when K is partial normal, and the cut-back
    # test below still decides whether the lift exists.
    lifted = normal_closure(Lplus, N.members)
    if lifted.members & set(L.elements) != N.members:
        raise PropertyViolation(
            "lift does not cut back to the base subgroup",
            witness=sorted(lifted.members & set(L.elements)),
        )
    return lifted


def check_unique_iso(Lplus: Locality, Ltilde: Locality):
    """Identity-anchored isomorphism between two growths, or None.

    Carriers here are realized inside one ambient group, so an
    isomorphism fixing a shared base exists exactly when element sets
    and object families coincide; the map is then the identity on
    ordinals.  The target must be a Locality.  It is the only isomorphism
    restricting to the identity on the base L of a growth Lplus =
    `full_expand(L, ...)`: as argued there, L generates Lplus, which cuts
    back to L, and an isomorphism that is the identity on a generating set
    is the identity, as it respects the products that form the rest.
    """
    if not isinstance(Ltilde, Locality):
        raise InputError("an isomorphism check needs a Locality target")
    if (set(Lplus.elements) != set(Ltilde.elements)
            or Ltilde.group is not Lplus.group or Ltilde.S.mask != Lplus.S.mask
            or Ltilde.delta.mask_set != Lplus.delta.mask_set):
        return None
    # A Locality's in_domain is a function of its group, S.mask, Delta and
    # carrier (S_w from the group and S, tested against Delta), and its
    # product folds the group's multiplication.  All four were compared
    # above, so the two are one partial group and the identity map is an
    # isomorphism both ways.
    return PGHom(Lplus, Ltilde, {g: g for g in Lplus.elements})


# -- quotient compatibility -----------------------------------------------------


def expand_quotient(L: Locality, N: PartialSubgroup,
                    growth: FullExpansion) -> tuple[LocalityQuotient, Locality]:
    """Grow L and L/N together: (L/N, the grown quotient).

    `growth` is the full expansion of L itself (`full_expand(L, target)`),
    so the towers over every N of one base share a single growth.  L has
    full domain, so the growth keeps L's carrier and the projection rho of
    L/N is itself the grown projection; the grown quotient is L/N's carrier
    on the pushed object family, without a growth of its own (argued
    below).
    """
    if growth.base is not L:
        raise InputError("the growth must be a full expansion of this locality")
    lq = quotient_locality(L, N)
    lbar = lq.locality
    send = lq.rho.mapping
    bar_members = {}
    for P in growth.locality.delta.members:
        m = mask_of(send[x] for x in P.members())
        bar_members[m] = Subgroup(lbar.group, m)
    # quotient_locality takes only a full-domain L, so every canonical word
    # (x**-1, h, y) of a growth step is in its base's domain (L's carrier,
    # by induction): no step creates an element, and the grown locality is
    # the group L again, on which rho is defined.  lbar has full domain too
    # (argued in quotient_locality), so each step of its growth would add
    # exactly its seed's class and end on lbar's carrier with the pushed
    # family.  That growth never fails here: lbar is a group, so its fusion
    # system is saturated, a fully normalized R has N(R) realized by
    # N_lbar(R), and _absorb takes larger classes first, so check_seed
    # passes every seed.  The Locality below checks the pushed family (O2).
    # The tower's other legs hold by construction: rho is a homomorphism
    # (quotient_locality), onto as lbar has one element per nonempty maximal
    # coset of L, with kernel the block of 1, the coset N*1 = N, which is
    # its own lift to the group L; and the preimage of a partial normal
    # subgroup of lbar is partial normal in L, mapped onto it by rho.
    try:
        bar_target = object_set(lbar.S, bar_members.values())
        lbarplus = lbar if bar_target.mask_set == lbar.delta.mask_set else Locality(
            lbar.group, lbar.elements, lbar.S, bar_target, L.p)
    except InputError as exc:
        raise PropertyViolation(
            f"pushed object family is not closed: {exc}"
        ) from exc
    return lq, lbarplus
