"""Growth of a locality's object family, one conjugacy class at a time.

Starting from (L, Delta, S) and a subgroup R of S whose strict overgroups
are already objects, the carrier is rebuilt so that Delta can absorb the
full conjugacy class of R.  Candidate new elements are equivalence classes
of triples (x**-1, h, y) with h normalizing R and x, y drawn from witness
sets attached to the conjugates of R.  A class that meets the domain
collapses onto the element of L it computes to; classes that never meet
the domain, when any exist, are adjoined as fresh elements realized by
their ambient products.

Every structural fact promised for the grown locality is re-verified
concretely before a result is returned: restriction back to the old
object family, preservation of the normalizer of R and of the fusion
system, properness when the input is proper, agreement of conjugation
records on fresh elements, and the correspondence of partial normal
subgroups across the two levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, PropertyViolation
from .fusion import FusionMap, conjugation_fusion
from .locality import (
    Locality,
    ObjectSet,
    is_proper,
    normalizer_in,
    object_set,
    quotient_locality,
    restriction_cut,
    subgroup_in_locality,
)
from .partial import (
    PGHom,
    PartialSubgroup,
    all_partial_normal_subgroups,
    generated_subgroup,
    is_partial_normal,
    normal_closure,
)
from .permgroup import Subgroup, is_characteristic_p, mask_members, mask_of, subgroups_below

__all__ = [
    "SeedReport",
    "ExpansionSeed",
    "PhiTriple",
    "TildeClass",
    "ElementaryExpansion",
    "FullExpansion",
    "QuotientExpansionReport",
    "check_seed",
    "build_y_sets",
    "make_seed",
    "sim_related",
    "canonical_triple",
    "inverse_triple",
    "approx_class",
    "gamma_form",
    "pi_plus",
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


def check_seed(L: Locality, R: Subgroup) -> SeedReport:
    """Admissibility of R for growing L's object family.

    Three legs: every strict overgroup of R inside S is already an object;
    R and the core of its normalizer subsystem are both fully normalized;
    the normalizer of R in L is a genuine subgroup whose conjugation
    fusion on N_S(R) recovers the normalizer subsystem.  On a proper
    carrier with R subcentric the first two legs force the third, so a
    concrete failure there is a bug and raises instead of reporting.
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
    if sub_ok:
        M = L.perm_subgroup(part)
        details["normalizer_order"] = M.order
        details["normalizer_characteristic_p"] = is_characteristic_p(M, L.p)
        fusion_ok = conjugation_fusion(R.normalizer(L.S), M.members()).same_homs(
            F.normalizer_system(R)
        )
        if not fusion_ok:
            details["normalizer_fusion_mismatch"] = R.mask
    else:
        details["normalizer_not_subgroup"] = witness

    if overs_ok and fn_ok and F.classify(R).subcentric and is_proper(L).ok:
        if not fusion_ok:
            raise PropertyViolation(
                "forced normalizer condition failed on a proper carrier",
                witness=R.mask,
            )
        if not details["normalizer_characteristic_p"]:
            raise PropertyViolation(
                "seed normalizer lost p-characteristic", witness=R.mask
            )
    ok = overs_ok and fn_ok and fusion_ok
    return SeedReport(ok, overs_ok, fn_ok, fusion_ok, details)


# -- witness sets and triples ---------------------------------------------------


def build_y_sets(L: Locality, R: Subgroup, conjugates=None) -> dict:
    """Witness sets Y_V = {y in L : R**y = V and N_S(V) pulls back along y}.

    Keyed by conjugate mask.  Once the strict-overgroup condition holds
    every set is guaranteed nonempty, so an empty one raises.
    """
    if conjugates is None:
        conjugates = L.fusion().conjugates(R)
    out = {}
    for V in conjugates:
        ns = V.normalizer(L.S).mask
        ys = []
        for y in L.elements:
            if R.conjugate(y).mask != V.mask:
                continue
            if ns & L.s_g_mask(L.inv(y)) == ns:
                ys.append(y)
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
    F = L.fusion()
    conjugates = F.conjugates(R)
    ysets = build_y_sets(L, R, conjugates)
    chosen = {m: min(ys) for m, ys in ysets.items()}
    if chosen[R.mask] != L.identity:
        raise PropertyViolation(
            "identity missing from the witness set at R", witness=R.mask
        )
    M = L.perm_subgroup(normalizer_in(L, R))
    return ExpansionSeed(L, R, conjugates, M, ysets, chosen)


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


def inverse_triple(seed: ExpansionSeed, phi: PhiTriple) -> PhiTriple:
    G = seed.group
    return PhiTriple(phi.y, G.inv(phi.h), phi.x, phi.v_mask, phi.u_mask)


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


def _domain_member(seed: ExpansionSeed, can: PhiTriple) -> PhiTriple | None:
    """A triple equivalent to `can` whose word lies in the base domain."""
    L0 = seed.locality
    if L0.full_domain:
        return can
    G = seed.group
    for xb in seed.ysets[can.u_mask]:
        for yb in seed.ysets[can.v_mask]:
            cand = _translate(seed, can, xb, yb)
            if L0.in_domain(seed.word(cand)):
                return cand
    return None


def elementary_expand(L: Locality, R: Subgroup) -> ElementaryExpansion:
    """Grow L's object family by the conjugacy class of R.

    A no-op when R is already an object.  Otherwise the admissibility
    report must pass, and the grown locality is verified before being
    returned: it restricts back to L, keeps the normalizer of R and the
    fusion system, stays proper when L was proper and R subcentric, and
    its conjugation records on fresh elements match the triple words.
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
                member = _domain_member(seed, can)
                if member is not None:
                    g = L.product(seed.word(member))
                    cls = embedded.get(g)
                    if cls is None:
                        cls = TildeClass("embedded", g, rep=can)
                        embedded[g] = cls
                else:
                    fresh = seed.fold(can)
                    if fresh in L._index or fresh in created:
                        raise PropertyViolation(
                            "ambient group cannot realize the growth", witness=fresh
                        )
                    created[fresh] = can
                    cls = TildeClass("pure", fresh, rep=can)
                class_index[(U.mask, h, V.mask)] = cls

    element_class = {}
    for g in L.elements:
        element_class[g] = embedded.get(g, TildeClass("embedded", g))
    for fresh, can in created.items():
        element_class[fresh] = class_index[(can.u_mask, can.h, can.v_mask)]
    singletons = len(L.elements) - len(embedded)

    target = [
        P
        for P in subgroups_below(L.S)
        if P.mask in L.delta.mask_set or any(V.le(P) for V in seed.conjugates)
    ]
    deltaplus = object_set(L.S, target, fusion=F)
    conj_masks = {V.mask for V in seed.conjugates}
    extra = deltaplus.mask_set - L.delta.mask_set - conj_masks
    if extra:
        # strict overgroups of conjugates must already have been objects
        raise PropertyViolation(
            "object family grew past the conjugacy class", witness=sorted(extra)
        )

    grown = Locality(G, list(L.elements) + sorted(created), L.S, deltaplus, L.p)

    _check_restricts_to_base(grown, L, witness=R.mask)
    if set(normalizer_in(grown, R).members) != set(normalizer_in(L, R).members):
        raise PropertyViolation("normalizer of the seed changed", witness=R.mask)
    if not grown.fusion().same_homs(F):
        raise PropertyViolation("fusion drifted during growth", witness=R.mask)
    grown_proper = is_proper(grown).ok
    if F.classify(R).subcentric and is_proper(L).ok and not grown_proper:
        raise PropertyViolation("properness lost during growth", witness=R.mask)
    for fresh, can in created.items():
        if grown.s_g_mask(fresh) != L.s_word_mask(seed.word(can)):
            raise PropertyViolation(
                "conjugation record mismatch on a fresh element", witness=fresh
            )

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


def _reps_with_left(exp: ElementaryExpansion, cls: TildeClass, u_mask: int) -> list:
    """Triple representatives of cls whose left endpoint is u_mask.

    Transversal-aligned representatives come first so searches stay cheap.
    """
    seed = exp.seed
    G = seed.group
    L0 = seed.locality
    out = []
    if cls.kind == "pure":
        rep = cls.rep
        if rep.u_mask != u_mask:
            return out
        for xb in seed.ysets[rep.u_mask]:
            for yb in seed.ysets[rep.v_mask]:
                out.append(_translate(seed, rep, xb, yb))
    else:
        g = cls.element
        sg = L0.s_g_mask(g)
        if u_mask & sg != u_mask:
            return out
        v_mask = Subgroup(G, u_mask).conjugate(g).mask
        if v_mask not in seed.ysets:
            raise PropertyViolation(
                "endpoint left the conjugacy class", witness=v_mask
            )
        for xb in seed.ysets[u_mask]:
            for yb in seed.ysets[v_mask]:
                h = G.mult(G.mult(xb, g), G.inv(yb))
                if h not in seed._m_set:
                    raise PropertyViolation(
                        "embedded representative escaped the normalizer", witness=h
                    )
                out.append(PhiTriple(xb, h, yb, u_mask, v_mask))
    cy = seed.chosen_y
    out.sort(key=lambda t: (t.x != cy[t.u_mask], t.y != cy[t.v_mask]))
    return out


def _gamma_forms(exp: ElementaryExpansion, word, limit: int) -> list:
    """Up to `limit` chained representative threadings of the word."""
    seed = exp.seed
    if seed is None or not word:
        return []
    for c in word:
        if not isinstance(c, TildeClass):
            raise InputError("entries must be classes of this growth step")
    L0 = seed.locality
    out = []

    def extend(prefix, idx, um):
        if len(out) >= limit:
            return
        if idx == len(word):
            u0 = prefix[0].u_mask
            wg = sum((seed.word(p) for p in prefix), ())
            if u0 & L0.s_word_mask(wg) != u0:
                raise PropertyViolation(
                    "chained threading lost its start point", witness=wg
                )
            out.append(tuple(prefix))
            return
        for phi in _reps_with_left(exp, word[idx], um):
            extend(prefix + [phi], idx + 1, phi.v_mask)
            if len(out) >= limit:
                return

    for U0 in seed.conjugates:
        extend([], 0, U0.mask)
        if len(out) >= limit:
            break
    return out


def gamma_form(exp: ElementaryExpansion, word):
    """A representative threading of a word of classes, or None.

    None means the word is not expressible through the triple machinery;
    words of embedded classes may still multiply inside the base.
    """
    forms = _gamma_forms(exp, word, 1)
    return forms[0] if forms else None


def _thread_value(exp: ElementaryExpansion, form) -> int:
    """Collapse a threading to its value: outer slots survive, middles fold."""
    seed = exp.seed
    G = seed.group
    mids = [form[0].h]
    for a, b in zip(form, form[1:]):
        link = G.mult(a.y, G.inv(b.x))
        if link not in seed._m_set:
            raise PropertyViolation("chain link escaped the normalizer", witness=link)
        mids.append(link)
        mids.append(b.h)
    acc = mids[0]
    for m in mids[1:]:
        acc = G.mult(acc, m)
    if acc not in seed._m_set:
        raise PropertyViolation("folded middle escaped the normalizer", witness=acc)
    return seed.fold(
        PhiTriple(form[0].x, acc, form[-1].y, form[0].u_mask, form[-1].v_mask)
    )


def pi_plus(exp: ElementaryExpansion, word) -> TildeClass:
    """Product of a word of classes in the grown locality.

    Words of embedded classes whose underlying elements already multiply
    in the base are evaluated there; other words need a representative
    threading.  The routes are cross-checked whenever both apply, distinct
    threadings must agree, and the result must match the carrier product.
    """
    Lp = exp.locality
    if not word:
        return exp.element_class[Lp.identity]
    interned = []
    for c in word:
        if not isinstance(c, TildeClass):
            raise InputError("entries must be classes of this growth step")
        if c.element not in exp.element_class:
            raise InputError(f"{c.element!r} is not an element of the grown locality")
        interned.append(exp.element_class[c.element])
    word = tuple(interned)
    base = exp.base
    ew = tuple(c.element for c in word)
    base_ok = all(c.kind == "embedded" for c in word) and base.in_domain(ew)
    meets_phi = exp.seed is not None and all(c.rep is not None for c in word)
    forms = _gamma_forms(exp, word, 2) if meets_phi else []
    if Lp.in_domain(ew) != (base_ok or bool(forms)):
        raise PropertyViolation("domain routes disagree", witness=ew)
    if not (base_ok or forms):
        Lp.product(ew)
        raise PropertyViolation("carrier accepted a word both routes reject", witness=ew)
    values = set()
    if base_ok:
        values.add(base.product(ew))
    for form in forms:
        values.add(_thread_value(exp, form))
    if len(values) != 1:
        raise PropertyViolation("routes produced different values", witness=ew)
    value = values.pop()
    if value != Lp.product(ew):
        raise PropertyViolation(
            "threaded value disagrees with the carrier", witness=ew
        )
    return exp.element_class[value]


def _check_restricts_to_base(grown: Locality, L: Locality, witness=None) -> None:
    """grown restricted to L's objects is L itself; no Locality is rebuilt.

    The cut is the carrier `restrict(grown, L.delta)` would build, with
    grown's group and S and L's Delta.  When it equals L's carrier, all
    four things that fix a Locality's domain and product agree with L's,
    so the restriction is L, which was validated when it was built.
    `restrict`'s own guard stays, on the two memoized properness reports.
    """
    if restriction_cut(grown, L.delta) != L.elements:
        raise PropertyViolation("restriction does not recover the base", witness=witness)
    cr_masks = {P.mask for P in grown.fusion().class_sets()["cr"]}
    if cr_masks <= L.delta.mask_set and is_proper(grown).ok and not is_proper(L).ok:
        raise PropertyViolation("restriction broke properness", witness=L.delta)


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
        step = elementary_expand(cur, R)
        if step.trace.get("noop"):
            raise PropertyViolation("missing class produced a no-op", witness=R.mask)
        steps.append(step)
        cur = step.locality
        if len(steps) > len(target.members):
            raise PropertyViolation("growth failed to terminate", witness=len(steps))


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
    back to L, keeps its fusion, and is generated by L as a partial group.
    """
    target = _validated_target(L, deltaplus)
    smasks = {P.mask for P in L.fusion().class_sets()["s"]}
    if not target.mask_set <= smasks:
        raise InputError("target family leaves the subcentric range")
    if not is_proper(L).ok:
        raise InputError("growth needs a proper locality")
    cur, steps = _absorb(L, target)
    if steps:
        gen = generated_subgroup(cur, L.elements)
        if gen.members != frozenset(cur.elements):
            raise PropertyViolation(
                "grown locality is not generated by the base",
                witness=sorted(gen.members),
            )
        _check_restricts_to_base(cur, L)
        if not cur.fusion().same_homs(L.fusion()):
            raise PropertyViolation("fusion drifted across the growth chain")
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
    if restriction_cut(Lplus, L.delta) != L.elements:
        raise InputError("the larger locality does not restrict to the smaller")


def lift_normal(L: Locality, Lplus: Locality, N: PartialSubgroup) -> PartialSubgroup:
    """Carry a partial normal subgroup of L up a growth.

    The lift is the normal closure of N in the grown locality.  It must
    cut back to N exactly and meet S in the same subgroup; both are
    verified.
    """
    _check_extension_pair(L, Lplus)
    if N.pg is not L:
        raise InputError("the subgroup must live in the base locality")
    if not is_partial_normal(L, N):
        raise InputError("lift needs a partial normal subgroup")
    # No guard that K = <N and its conjugates in Lplus> is partial normal
    # is needed.  When it is, the closure's first round yields exactly K
    # and stops.  Otherwise the closure is the least partial normal
    # subgroup containing N, and the cut-back test below still decides
    # whether the lift exists.
    lifted = normal_closure(Lplus, N.members)
    if lifted.members & set(L.elements) != N.members:
        raise PropertyViolation(
            "lift does not cut back to the base subgroup",
            witness=sorted(lifted.members & set(L.elements)),
        )
    s_ords = set(mask_members(L.S.mask))
    if lifted.members & s_ords != N.members & s_ords:
        raise PropertyViolation(
            "lift changed the S-part of the subgroup",
            witness=sorted(lifted.members & s_ords),
        )
    return lifted


def check_unique_iso(Lplus: Locality, Ltilde, base: Locality | None = None):
    """Identity-anchored isomorphism between two growths, or None.

    Carriers here are realized inside one ambient group, so an
    isomorphism fixing a shared base exists exactly when element sets
    and object families coincide; the map is then the identity on
    ordinals.  A Locality target needs no word sweep (see below); any
    other target is verified as a homomorphism in both directions.  With
    `base` given, the base must generate both carriers, which pins the
    isomorphism down as the only one restricting to the identity.
    """
    if set(Lplus.elements) != set(Ltilde.elements):
        return None
    if isinstance(Ltilde, Locality):
        if Ltilde.group is not Lplus.group or Ltilde.S.mask != Lplus.S.mask:
            return None
        if Ltilde.delta.mask_set != Lplus.delta.mask_set:
            return None
    if base is not None:
        try:
            _check_extension_pair(base, Lplus)
            if isinstance(Ltilde, Locality):
                _check_extension_pair(base, Ltilde)
        except InputError:
            return None
        gen = generated_subgroup(Lplus, base.elements)
        if gen.members != frozenset(Lplus.elements):
            return None
    mapping = {g: g for g in Lplus.elements}
    forward = PGHom(Lplus, Ltilde, mapping)
    if isinstance(Ltilde, Locality):
        # A Locality's in_domain is a function of its group, S.mask,
        # Delta and carrier (S_w from the group and S, tested against
        # Delta), and its product folds the group's multiplication.  All
        # four were compared above, so the two are one partial group and
        # the identity map is an isomorphism both ways.
        return forward
    ok, _ = forward.verify()
    if not ok:
        return None
    back, _ = PGHom(Ltilde, Lplus, mapping).verify()
    if not back:
        return None
    return forward


# -- quotient compatibility -----------------------------------------------------


@dataclass
class QuotientExpansionReport:
    """Reconciliation of growth with a quotient by a partial normal subgroup."""

    ok: bool
    checks: dict
    lplus: Locality
    nplus: PartialSubgroup
    lbar: Locality
    sigma: FusionMap
    lbarplus: Locality
    rho_plus: PGHom


def expand_quotient(L: Locality, N: PartialSubgroup,
                    growth: FullExpansion) -> QuotientExpansionReport:
    """Grow L and L/N together and reconcile the two towers.

    `growth` is the full expansion of L itself (`full_expand(L, target)`),
    so the towers over every N of one base share a single growth.  The
    quotient projection must extend to the grown carriers with the
    lifted subgroup as kernel, and partial normal subgroups of the
    quotient must correspond to partial normal subgroups above N across
    the growth.  Every leg is checked and reported.
    """
    if growth.base is not L:
        raise InputError("the growth must be a full expansion of this locality")
    lq = quotient_locality(L, N)
    lplus = growth.locality
    nplus = lift_normal(L, lplus, N)
    lbar = lq.locality
    send = dict(lq.rho.mapping)
    Gq = lbar.group

    bar_members = {}
    for P in lplus.delta.members:
        m = mask_of(send[x] for x in P.members())
        bar_members[m] = Subgroup(Gq, m)
    try:
        bar_target = object_set(lbar.S, bar_members.values(), fusion=lbar.fusion())
    except InputError as exc:
        raise PropertyViolation(
            f"pushed object family is not closed: {exc}"
        ) from exc

    if bar_target.mask_set == lbar.delta.mask_set:
        lbarplus = lbar
    else:
        # the quotient side may grow without a properness guarantee
        lbarplus, _ = _absorb(lbar, bar_target)

    send_plus = dict(send)
    for step in growth.steps:
        for fresh, can in step.created.items():
            send_plus[fresh] = Gq.mult(
                Gq.mult(Gq.inv(send_plus[can.x]), send_plus[can.h]),
                send_plus[can.y],
            )
    rho_plus = PGHom(lplus, lbarplus, send_plus)

    ok_verify, _ = rho_plus.verify()
    checks = {
        "projection_verified": ok_verify,
        "extends_base_projection": all(send_plus[g] == send[g] for g in L.elements),
        "is_projection": ok_verify and rho_plus.is_projection(),
        "kernel_matches_lift": ok_verify and rho_plus.kernel().members == nplus.members,
    }

    correspondence = True
    for Kbar in all_partial_normal_subgroups(lbar):
        pre = frozenset(x for x in L.elements if send[x] in Kbar.members)
        K = PartialSubgroup(L, pre)
        if not is_partial_normal(L, K):
            raise PropertyViolation(
                "projection preimage is not partial normal", witness=sorted(pre)
            )
        kplus = lift_normal(L, lplus, K)
        kbarplus = lift_normal(lbar, lbarplus, Kbar)
        image = frozenset(send_plus[x] for x in kplus.members)
        if image != kbarplus.members:
            correspondence = False
            break
        if kbarplus.members & set(lbar.elements) != Kbar.members:
            correspondence = False
            break
    checks["normal_correspondence"] = correspondence

    return QuotientExpansionReport(
        ok=all(checks.values()),
        checks=checks,
        lplus=lplus,
        nplus=nplus,
        lbar=lbar,
        sigma=lq.sigma,
        lbarplus=lbarplus,
        rho_plus=rho_plus,
    )
