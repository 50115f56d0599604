"""Guards and closures that src/ dropped because a stated argument implies them.

Each `reference_*` function below is the dropped code with its guard, or
the closure by composition it replaced, as it stood before; the argument
that replaced it sits beside the library code.  `check_carrier` runs every
reference on one carrier, and `check_growth` on one growth, and each
compares its answer with the library's.  They run over every carrier and
growth that the verify contexts of the built-in pairs build (towers and
Theta-quotients included), over the A6 growth on partial-domain bases, and
over the random groups of `tests/test_random_groups.py`.  The normalizer
and centralizer localities, which no command builds, live here too.
"""

import collections
import functools
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab import caps, expansion, locality, partial
from llab.checks import ExampleContext
from llab.errors import CapExceeded, InputError, PropertyViolation
from llab.expansion import (check_seed, elementary_expand, expand_quotient, full_expand,
                            lift_normal)
from llab.fusion import (
    FHom,
    FusionSystem,
    _conj_keys,
    _Derived,
    _inner_seeds,
    conjugation_fusion,
    fusion_from_group,
    quotient_fusion_check,
)
from llab.locality import (
    Locality,
    centralizer_in,
    is_proper,
    locality_from_group,
    normalizer_in,
    o_p_locality,
    o_p_of,
    o_pprime_of,
    object_set,
    product_partial_normal,
    quotient_locality,
    resolve_delta_spec,
    restrict,
    subgroup_in_locality,
    theta_quotient,
)
from llab.partial import (
    PartialSubgroup,
    all_partial_normal_subgroups,
    coset_partition,
    is_partial_normal,
    products,
)
from llab.permgroup import (
    FiniteGroup,
    Subgroup,
    group_from_generators,
    is_characteristic_p,
    mask_members,
    mask_of,
    p_core,
    subgroups_below,
    sylow_p,
)
from table_partial import UncheckedLocality
from test_expansion import (a6_growth, builtin, example, frontier_growth, growths, loc,
                            setup, swap_type)
from test_fusion import BUILTIN_PAIRS, any_group


# -- the dropped code -----------------------------------------------------------


def reference_right_coset(pg, sub, g):
    """`partial.right_coset`: g and the defined x*g, x in sub, each pair
    decided by its own `in_domain` walk."""
    out = {g}
    for x in sub.members:
        if pg.in_domain((x, g)):
            out.add(pg.binary(x, g))
    return frozenset(out)


def reference_product_set(L, A, B):
    """`locality._product_set`: the defined a*b, each pair decided by its own
    `in_domain` walk."""
    out = set()
    for a, b in itertools.product(A, B):
        if L.in_domain((a, b)):
            out.add(L.binary(a, b))
    return frozenset(out)


def reference_cut(delta):
    """G|Delta by brute force: each g with its own S_g, from conjugating S."""
    S = delta.S
    return frozenset(g for g in range(S.group.order)
                     if mask_of(x for x in S.members() if S.group.conj(x, g) in S)
                     in delta.mask_set)


def reference_coset_representatives(G, S):
    """`SConjugation.coset_representatives` as a labelling sweep: every g
    of G labelled by the images of S's generators; label -> least g."""
    gens = S.generators()
    firsts = {}
    for g in range(G.order):
        firsts.setdefault(G.conj_images(gens, g), g)
    return firsts


def compose(a, b):
    """Apply a, then b: the product written out, independent of `pmul`."""
    return tuple(b[i] for i in a)


def reference_row(G, i):
    """`FiniteGroup.mult`'s Cayley row of i as it was built: i·b for every
    element b, one composition and one tuple hash per entry."""
    a = G.elements[i]
    return tuple(G._index[compose(a, b)] for b in G.elements)


def reference_closure(degree, generators, cap):
    """`permgroup._grow` as it stood, breadth first over elements, driven by
    `group_from_generators`: each new element is multiplied by every
    generator and each product probed.  Returns the element set and the kept
    generators; raises CapExceeded when an element past the cap turns up."""
    ident = tuple(range(degree))
    elements, seen, gens = [ident], {ident}, []
    for g in map(tuple, generators):
        if g in seen:
            continue
        old = len(elements)
        gens.append(g)
        for i, a in enumerate(elements):
            for h in gens if i >= old else (g,):
                b = compose(a, h)
                if b not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("group order", cap)
                    seen.add(b)
                    elements.append(b)
    return seen, gens


def reference_close_mask(G, seed):
    """`FiniteGroup.close_mask` as it stood: breadth first from 1, each new
    element multiplied on the right by every seed member, |K|·|seed|
    products for a closure K."""
    gens = mask_members(seed)
    mask = 1
    frontier = [0]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                k = G.mult(h, g)
                if not mask >> k & 1:
                    mask |= 1 << k
                    nxt.append(k)
        frontier = nxt
    return mask


def reference_generators(H):
    """`Subgroup.generators` as it stood: each member outside the closure of
    the ones kept so far is kept, and the kept ones are closed again from
    scratch."""
    gens, mask = [], 1
    for i in H.members():
        if not mask >> i & 1:
            gens.append(i)
            mask = reference_close_mask(H.group, mask_of(gens))
            if mask == H.mask:
                break
    if mask != H.mask:
        raise InputError("mask is not multiplicatively closed")
    return tuple(gens) or (0,)


def reference_restriction_cut(L, delta0):
    """`locality.restriction_cut`: the members g of L with S_g in Delta0, in
    L's order."""
    return tuple(g for g in L.elements if L.s_g_mask(g) in delta0.mask_set)


def join(U, V):
    """The subgroup generated by U and V."""
    gens = mask_of(U.generators()) | mask_of(V.generators())
    return Subgroup(U.group, U.group.close_mask(gens))


def reference_find_o_p(F):
    """`FusionSystem._find_o_p` with its join-closure and uniqueness guards."""
    normals = [
        T
        for T in F.subs
        if is_normal_in(T, F.S) and F.is_normal_in_system(T)
    ]
    top = normals[0]
    for U, V in itertools.combinations(normals, 2):
        if join(U, V) not in normals:
            raise PropertyViolation(
                "normal subgroups of the system are not join-closed",
                witness=(U.mask, V.mask),
            )
    for U in normals:
        if not U.le(top):
            raise PropertyViolation(
                "largest system-normal subgroup is not unique",
                witness=(top.mask, U.mask),
            )
    return top


def reference_group_core(H, p):
    """`p_core` as the intersection of the Sylow conjugates S**h, h in H,
    built through `G.conj`."""
    S = sylow_p(H, p)
    mask = S.mask
    for g in H.members():
        if mask == 1:
            break
        mask &= mask_of(H.group.conj(x, g) for x in S.members())
    return Subgroup(H.group, mask)


def is_normal_in(K, H):
    """`Subgroup.is_normal_in`: K lies in H, and each generator of K
    conjugated by each generator of H lands back in K."""
    if not K.le(H):
        return False
    return all(K.mask >> K.group.conj(x, g) & 1
               for g in H.generators() for x in K.generators())


def normal_subgroups(H):
    """`permgroup.normal_subgroups`: every normal subgroup of H, canonically
    ordered."""
    return [K for K in subgroups_below(H) if is_normal_in(K, H)]


def reference_p_prime_core(H, p):
    """O_{p'}(H), the largest normal subgroup of order prime to p, with its
    uniqueness guard: `permgroup.p_prime_core` until no command read it."""
    if math.gcd(H.order, p) == 1:  # H itself is a normal p'-subgroup
        return H
    # largest first, and the trivial subgroup is always among them
    coprime = [K for K in normal_subgroups(H) if math.gcd(K.order, p) == 1]
    best = coprime[0]
    # the p'-core is unique: every other normal p'-subgroup sits inside it
    for K in coprime[1:]:
        if not K.le(best):
            raise PropertyViolation("two incomparable maximal normal p'-subgroups",
                                    (best, K))
    return best


def reference_coset_partition(pg, sub):
    """`coset_partition` with its cover guard."""
    if not is_partial_normal(pg, sub):
        raise AssertionError("quotient requires a partial normal subgroup")
    cosets = {reference_right_coset(pg, sub, g) for g in pg.elements}
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
    maximal.sort(key=lambda c: min(pg.index_of(x) for x in c))
    return tuple(maximal)


def domain_words(pg, max_len):
    """Every domain word of length 1..max_len, shortest first, then
    lexicographic in carrier order: the words of each length filtered by
    `in_domain`, without the walker."""
    return [w for k in range(1, max_len + 1)
            for w in itertools.product(pg.elements, repeat=k) if pg.in_domain(w)]


def reference_kernel(hom):
    """`PGHom.kernel` with its normality guard."""
    ok, witness = hom.verify()
    if not ok:
        raise InputError(f"not a partial group homomorphism: {witness}")
    e = hom.target.identity
    ker = PartialSubgroup(
        hom.source,
        frozenset(x for x in hom.source.elements if hom.mapping[x] == e),
    )
    if not is_partial_normal(hom.source, ker):
        raise PropertyViolation("kernel is not partial normal", witness=ker)
    return ker


def reference_is_projection(hom, max_len=3):
    """`PGHom.is_projection`: every target domain word lifts to a source
    domain word, letter by letter."""
    src = hom.source
    fibers = {}
    for x, fx in hom.mapping.items():
        fibers.setdefault(fx, []).append(x)

    def lifts(prefix, rest):
        if not rest:
            return True
        return any(src.in_domain(prefix + (x,)) and lifts(prefix + (x,), rest[1:])
                   for x in fibers.get(rest[0], ()))

    return all(lifts((), w) for w in domain_words(hom.target, max_len))


def reference_tower_checks(L, N, growth, send=None):
    """The five legs of the tower over N that `expand_quotient` argues,
    computed from (L, N, growth): the grown projection rho+ from the grown
    locality L+ onto the grown quotient is a homomorphism, extends rho
    through the maximal cosets of the lift N+ of N, is onto with kernel N+,
    and its preimages are the partial normal subgroups of L+ above N+.
    `send` replaces rho+'s map, which is rho's."""
    lq, lbarplus = expand_quotient(L, N, growth)
    lplus, rho = growth.locality, lq.rho.mapping
    send = rho if send is None else send
    # both carriers are groups, so a map respects every word iff it
    # respects every pair
    assert lplus.full_domain and lbarplus.full_domain
    nplus = lift_normal(L, lplus, N)
    base, extends = frozenset(L.elements), True
    for c in coset_partition(lplus, nplus):
        # each maximal coset of N+ meets L in one fiber of rho, and is sent
        # where that fiber is
        image = {rho[x] for x in c & base}
        extends &= len(image) == 1 and {send[x] for x in c} == image
    preimages = {frozenset(x for x in lplus.elements if send[x] in Kbar.members): Kbar
                 for Kbar in all_partial_normal_subgroups(lbarplus)}
    above = {K.members for K in all_partial_normal_subgroups(lplus)
             if nplus.members <= K.members}
    return {
        "projection_verified": send[lplus.identity] == lbarplus.identity and all(
            send[lplus.binary(x, y)] == lbarplus.binary(send[x], send[y])
            for x in lplus.elements for y in lplus.elements),
        "extends_base_projection": extends,
        # L+ has full domain, so onto is enough: a word lifts letter by letter
        "is_projection": set(send.values()) == set(lbarplus.elements),
        "kernel_matches_lift": frozenset(
            x for x in lplus.elements if send[x] == lbarplus.identity) == nplus.members,
        "normal_correspondence": set(preimages) == above and all(
            {send[x] for x in K} == Kbar.members for K, Kbar in preimages.items()),
    }


def reference_quotient_blocks(L, blocks):
    """The block permutations of `quotient_locality` read off every product
    of two blocks, with the guard that each pair of blocks multiplies into
    one block.  Returns one permutation of the block indices per block."""
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
    return perms


def reference_block_group(L, N):
    """The block group of `quotient_locality`, with its regularity guard."""
    blocks = coset_partition(L, N)
    Q = group_from_generators(len(blocks), reference_quotient_blocks(L, blocks))
    if Q.order != len(blocks):
        raise PropertyViolation("block action is not regular", witness=Q.order)
    return Q


def reference_relative_core(L, N, kind):
    """Each relative core as an intersection over the lattice, with the
    empty-family guard and the guard that the intersection stays in its
    family."""
    if not is_partial_normal(L, N):
        raise AssertionError("relative core needs a partial normal subgroup")
    T = frozenset(x for x in L.S.members() if x in N.members)
    fam = []
    for K in all_partial_normal_subgroups(L):
        if kind == "p":
            if reference_product_set(L, K.members, T) == N.members:
                fam.append(K)
        else:
            if T <= K.members:
                fam.append(K)
    if not fam:
        raise PropertyViolation("relative core family is empty", witness=kind)
    inter = frozenset.intersection(*[K.members for K in fam])
    out = PartialSubgroup(L, inter)
    if kind == "p" and reference_product_set(L, inter, T) != N.members:
        raise PropertyViolation("intersection left the O^p family", witness=out)
    if kind == "p'" and not T <= inter:
        raise PropertyViolation("intersection left the O^{p'} family", witness=out)
    return out


def reference_subgroup_in_locality(L, members):
    """`subgroup_in_locality` with each pair decided by its own `in_domain`
    walk, in carrier order."""
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


def reference_is_closed_mask(G, mask):
    """`FiniteGroup.is_closed_mask`: the identity and every pair product."""
    members = mask_members(mask)
    return bool(mask & 1) and all(mask >> G.mult(a, b) & 1
                                  for a in members for b in members)


def reference_perm_subgroup(L, part):
    """`Locality.perm_subgroup`: a partial subgroup as an ambient Subgroup,
    with the closure sweep that the argument in locality._stabilizer_in made
    redundant."""
    mask = mask_of(part.members)
    if not reference_is_closed_mask(L.group, mask):
        raise PropertyViolation("partial subgroup is not an ambient subgroup",
                                witness=mask)
    return Subgroup(L.group, mask)


def reference_walk_in_domain(L, state):
    """`Locality.walk_in_domain` with S_w pulled back from its image."""
    return L.full_domain or L._pull_back(state) in L.delta.mask_set


def reference_o_p_locality(L):
    """`o_p_locality` with its uniqueness guard."""
    winners = []
    for P in subgroups_below(L.S):
        if is_normal_in(P, L.S) and is_partial_normal(
                L, PartialSubgroup(L, frozenset(P.members()))):
            winners.append(P)
    top = winners[0]
    for P in winners:
        if not P.le(top):
            raise PropertyViolation("normal-in-L subgroups of S lack a unique maximum",
                                    witness=(top, P))
    return top


def reference_invariant_core(table, elements):
    """`Locality._invariant_core_mask`: the largest subset of S stable under
    conjugation by each of `elements`, one fixpoint over every element's
    row of S's conjugation table."""
    rows = [table.images(g) for g in elements]
    cur = table.mask
    while True:
        nxt = 0
        for i, x in enumerate(table.members):
            if cur >> x & 1 and all(cur >> row[i] & 1 for row in rows):
                nxt |= 1 << x
        if nxt == cur:
            return cur
        cur = nxt


def reference_theta(L):
    """Theta of `theta_quotient` with its partial-normality guard."""
    members = {L.identity}
    for P in L.delta.members:
        C = reference_perm_subgroup(L, centralizer_in(L, P))
        members.update(reference_p_prime_core(C, L.p).members())
    theta = PartialSubgroup(L, frozenset(members))
    if not is_partial_normal(L, theta):
        raise PropertyViolation("Theta is not partial normal", witness=theta)
    return theta


def reference_grown_family(step):
    """Delta+ of `elementary_expand`, with its guard on R's class."""
    L, seed = step.base, step.seed
    target = [
        P
        for P in subgroups_below(L.S)
        if P.mask in L.delta.mask_set or any(V.le(P) for V in seed.conjugates)
    ]
    deltaplus = object_set(L.S, target, fusion=L.fusion())
    conj_masks = {V.mask for V in seed.conjugates}
    extra = deltaplus.mask_set - L.delta.mask_set - conj_masks
    if extra:
        raise PropertyViolation(
            "object family grew past the conjugacy class", witness=sorted(extra)
        )
    return deltaplus


def reference_absorb(L, steps, target):
    """`expansion._absorb` with its no-op guard, replayed over its steps."""
    F = L.fusion()
    cur = L
    for step in steps:
        missing = target - cur.delta.mask_set
        cands = sorted((Subgroup(L.group, m) for m in missing), key=lambda P: P.key())
        R = F.good_conjugate(cands[0])
        assert step.seed.R.mask == R.mask
        if R.mask in cur.delta.mask_set:  # elementary_expand's no-op test
            raise PropertyViolation("missing class produced a no-op", witness=R.mask)
        cur = step.locality
    return cur


def reference_stabilizer(P, scope, pointwise):
    """`Subgroup.normalizer` / `centralizer` before S's table served them:
    the g in the subgroup `scope` (any scope, the whole group too) with
    x**g in P, or x**g == x, for every generator x of P, by `G.conj`."""
    G = P.group
    gens = P.generators()
    out = 0
    for g in scope.members():
        images = [G.conj(x, g) for x in gens]
        if (images == list(gens) if pointwise
                else all(P.mask >> y & 1 for y in images)):
            out |= 1 << g
    return Subgroup(G, out)


def reference_stabilizer_in(L, P, pointwise):
    """`normalizer_in` / `centralizer_in` as `locality._stabilizer_in` made
    them: the g in L with P <= S_g, then x**g in P, or x**g == x, for every
    x in P, read off whole rows of S's table."""
    if not P.le(L.S):
        raise InputError(f"{'centralizer_in' if pointwise else 'normalizer_in'}"
                         " expects P <= S")
    pm, table = P.mask, L._s_conj
    members = set()
    for g in L.elements:
        if L.s_g_mask(g) & pm != pm:
            continue
        if pointwise:
            fixed = all(x == y for x, y in zip(table.members, table.images(g))
                        if pm >> x & 1)
        else:
            fixed = table.conjugate_mask(pm, g) == pm
        if fixed:
            members.add(g)
    return PartialSubgroup(L, frozenset(members))


def reference_normalizer_in(L, P):
    """`normalizer_in` with its subgroup guard for an object P."""
    part = normalizer_in(L, P)
    if P.mask in L.delta.mask_set:
        ok, witness = subgroup_in_locality(L, part.members)
        if not ok:
            raise PropertyViolation("N_L(P) for an object P is not a subgroup",
                                    witness=witness)
    return part


def reference_centralizer_in(L, P):
    """`centralizer_in` with its subgroup guard for an object P."""
    part = centralizer_in(L, P)
    if P.mask in L.delta.mask_set:
        ok, witness = subgroup_in_locality(L, part.members)
        if not ok:
            raise PropertyViolation("C_L(P) for an object P is not a subgroup",
                                    witness=witness)
    return part


def reference_quotient_locality(L, N):
    """`quotient_locality` with its projection guard."""
    lq = quotient_locality(L, N)
    ok, witness = lq.rho.verify()
    if not ok:
        raise PropertyViolation("quotient projection is not a homomorphism",
                                witness=witness)
    return lq


def reference_theta_quotient(L):
    """`theta_quotient` with its fusion-system guard."""
    theta, quotient = theta_quotient(L)
    if theta.order != 1:
        lq = quotient_locality(L, theta)
        report = quotient_fusion_check(lq.sigma, L.fusion(), lq.locality.fusion())
        if not report.ok:
            raise PropertyViolation("theta quotient changed the fusion system",
                                    witness=report.checks)
    return theta, quotient


# N_L(V) and C_L(V) over the centric objects of N_F(V) and C_F(V) (Chermak,
# Fusion systems and localities, Acta Math. 211 (2013)).  No command builds
# them; as references they cross-check `FusionSystem.normalizer_system` and
# `centralizer_system`, `restrict` and `full_expand` against localities.

_CENTRIC_BASES = weakref.WeakKeyDictionary()


def centric_base(L):
    """A proper L re-pointed at Delta = F^c, grown first if needed; built
    once per L, unless it is L itself."""
    c_objs = L.fusion().class_sets()["c"]
    c_masks = {P.mask for P in c_objs}
    if c_masks == L.delta.mask_set:
        return L
    if L not in _CENTRIC_BASES:
        grown = L
        if not c_masks <= L.delta.mask_set:
            target = {P.mask: P for P in L.delta.members}
            target.update({P.mask: P for P in c_objs})
            grown = expansion.full_expand(L, target.values()).locality
        _CENTRIC_BASES[L] = locality.restrict(grown, c_objs)
    return _CENTRIC_BASES[L]


def normalizer_locality(L, V):
    """N_L(V) over the centric objects of N_F(V), for a proper L and a fully
    normalized V (both checked)."""
    F = L.fusion()
    if not F.is_fully_normalized(V):
        raise InputError("normalizer locality needs a fully normalized V")
    if not is_proper(L).ok:
        raise InputError("normalizer locality needs a proper input")
    base = centric_base(L)
    ns = V.normalizer(L.S)
    delta_v = object_set(ns, F.normalizer_system(V).class_sets()["c"])
    vm = V.mask
    table = base._s_conj
    members = [g for g in base.elements
               if base.s_g_mask(g) & vm == vm
               and table.conjugate_mask(vm, g) == vm
               and (base.s_g_mask(g) & ns.mask) in delta_v.mask_set]
    return Locality(base.group, members, ns, delta_v, L.p)


def centralizer_locality(L, V):
    """C_L(V) over the centric objects of C_F(V), cut from N_L(V)."""
    LV = normalizer_locality(L, V)
    cs = V.centralizer(L.S)
    sigma = object_set(cs, L.fusion().centralizer_system(V).class_sets()["c"])
    # V <= N_S(V), the S of LV, so LV's table holds V's rows
    members = [g for g in reference_stabilizer_in(LV, V, True).members
               if (LV.s_g_mask(g) & cs.mask) in sigma.mask_set]
    return Locality(L.group, members, cs, sigma, L.p)


def reference_normalizer_locality(L, V):
    """`normalizer_locality` with its properness and fusion guards."""
    out = normalizer_locality(L, V)
    prop = is_proper(out)
    if not prop.ok:
        raise PropertyViolation("normalizer locality is not proper",
                                witness=prop.summary())
    if not out.fusion().same_homs(L.fusion().normalizer_system(V)):
        raise PropertyViolation("normalizer locality has the wrong fusion system",
                                witness=V)
    return out


def reference_centralizer_locality(L, V):
    """`centralizer_locality` with its properness and fusion guards."""
    out = centralizer_locality(L, V)
    prop = is_proper(out)
    if not prop.ok:
        raise PropertyViolation("centralizer locality is not proper",
                                witness=prop.summary())
    if not out.fusion().same_homs(L.fusion().centralizer_system(V)):
        raise PropertyViolation("centralizer locality has the wrong fusion system",
                                witness=V)
    return out


def reference_product_partial_normal(L, M, N):
    """`product_partial_normal` as the pair sweep: the D-products of M x N,
    with its guards on the inputs and on the product's partial normality."""
    if not is_partial_normal(L, M) or not is_partial_normal(L, N):
        raise InputError("product needs partial normal inputs")
    out = PartialSubgroup(L, products(L, M.members, N.members))
    if not is_partial_normal(L, out):
        raise PropertyViolation("product of partial normals is not partial normal",
                                witness=out)
    return out


def check_products(L, normals):
    """`product_partial_normal` against the pair sweep on every ordered pair
    of partial normal subgroups, with no `products` call of its own."""
    calls = []
    sweep = partial.products

    def counted(pg, xs, ys):
        calls.append(pg)
        return sweep(pg, xs, ys)

    for module in (partial, locality):
        module.products = counted
    try:
        got = [product_partial_normal(L, M, N).members
               for M, N in itertools.product(normals, repeat=2)]
    finally:
        for module in (partial, locality):
            module.products = sweep
    assert not calls
    assert got == [reference_product_partial_normal(L, M, N).members
                   for M, N in itertools.product(normals, repeat=2)]


def reference_restriction_proper(L, cut):
    """`locality._check_restriction_proper`, the properness guard of
    `restrict` and of a growth's cut to its base."""
    cr_masks = {P.mask for P in L.fusion().class_sets()["cr"]}
    if cr_masks <= cut.delta.mask_set and is_proper(L).ok and not is_proper(cut).ok:
        raise PropertyViolation("restriction broke properness", witness=cut.delta)


def reference_restrict(L, delta0):
    """`restrict` with its properness guard."""
    out = restrict(L, delta0)
    reference_restriction_proper(L, out)
    return out


def reference_restricts_to_base(grown, L, witness=None):
    """`expansion._check_restricts_to_base`: the cut of grown to L's objects
    is L's carrier, and the restriction keeps properness."""
    if reference_restriction_cut(grown, L.delta) != L.elements:
        raise PropertyViolation("restriction does not recover the base", witness=witness)
    reference_restriction_proper(grown, L)


def reference_check_seed(L, R):
    """`check_seed` with its two forced-condition guards."""
    report = check_seed(L, R)
    if (report.strict_overgroups_in_delta and report.rep_and_core_fully_normalized
            and L.fusion().classify(R).subcentric and is_proper(L).ok):
        if not report.normalizer_witnesses_fusion:
            raise PropertyViolation(
                "forced normalizer condition failed on a proper carrier",
                witness=R.mask,
            )
        if not report.details["normalizer_characteristic_p"]:
            raise PropertyViolation(
                "seed normalizer lost p-characteristic", witness=R.mask
            )
    return report


def reference_is_proper(L):
    """`is_proper` in full, neither reading nor keeping the report kept on L:
    the verdict, the masks of F^cr missing from Delta (PL1), and the mask
    pairs (P, N_L(P)) whose normalizer is not of characteristic p (PL2)."""
    missing = [P.mask for P in L.fusion().class_sets()["cr"]
               if P.mask not in L.delta.mask_set]
    bad = []
    for P in L.delta.members:
        N = Subgroup(L.group, mask_of(normalizer_in(L, P).members))
        if not is_characteristic_p(N, L.p):
            bad.append((P.mask, N.mask))
    return not missing and not bad, missing, bad


def check_proper(L):
    """`is_proper(L)` against `reference_is_proper`; returns the verdict."""
    report = is_proper(L)
    ok, missing, bad = reference_is_proper(L)
    assert report.ok == ok
    assert [P.mask for P in report.missing_cr] == missing
    assert [(P.mask, N.mask) for P, N in report.bad_normalizers] == bad
    return ok


def reference_step_proper(step):
    """The properness guard of `elementary_expand`, on one step, with the
    step's report, which a proper base hands on, checked in full."""
    L, R = step.base, step.seed.R
    ok = check_proper(step.locality)
    assert step.trace["checks"]["proper"] == ok
    if L.fusion().classify(R).subcentric and is_proper(L).ok and not ok:
        raise PropertyViolation("properness lost during growth", witness=R.mask)


def reference_close(S, keys):
    """S's inner maps and the keys closed by `FusionSystem._close`, the BFS
    over composition, restriction and inversion, as the table's key set."""
    group, cap = S.group, caps.current().fusion_maps
    masks = [P.mask for P in subgroups_below(S)]
    table = {m: {} for m in masks}
    by_image = {m: set() for m in masks}
    count = 0
    queue = collections.deque()

    def push(h):
        nonlocal count
        row = table[h.dom_mask]
        if h.images in row:
            return
        img = h.image_mask
        row[h.images] = img
        by_image[img].add((h.dom_mask, h.images))
        count += 1
        if count > cap:
            raise CapExceeded("fusion homtable", cap)
        queue.append(h)

    spots = {}
    for dom, images in dict.fromkeys((*_inner_seeds(S), *keys)):
        push(FHom(group, dom, images))
    while queue:
        h = queue.popleft()
        img = h.image_mask
        pairs = sorted(zip(h.images, mask_members(h.dom_mask)))
        push(FHom(group, img, tuple(x for _, x in pairs)))
        for m in masks:
            if m != h.dom_mask and (m & h.dom_mask) == m:
                push(h.restrict(m))
        pos = spots.get(img)
        if pos is None:
            pos = spots[img] = {x: i for i, x in enumerate(mask_members(img))}
        # h, then each stored map k on h's image: x -> k(h(x))
        at = [pos[y] for y in h.images]
        for images in list(table[img]):
            push(FHom(group, h.dom_mask, tuple(images[i] for i in at)))
        # each stored map k onto h's domain, then h: x -> h(k(x))
        hm = h.mapping
        for dom2, images2 in list(by_image[h.dom_mask]):
            push(FHom(group, dom2, tuple(hm[y] for y in images2)))
    return frozenset((dom, images) for dom, row in table.items() for images in row)


def reference_group_fusion(S, conjugators):
    """`fusion_from_group` and full-domain `Locality.fusion`: the
    conjugation keys, closed."""
    return reference_close(S, _conj_keys(S, conjugators))


def reference_harvest(F, carrier, keep):
    """`FusionSystem._harvest`: each map of F that passes `keep`, cut to the
    members of its domain in the carrier that it maps into the carrier,
    as a generator, then closed."""
    cm = carrier.mask
    gens = []
    for dom in F._masks:
        for images in F._table[dom]:
            h = FHom(F.group, dom, images)
            if not keep(h):
                continue
            m = h.mapping
            sub = [x for x in mask_members(dom & cm) if (1 << m[x]) & cm]
            if sub:
                gens.append((sum(1 << x for x in sub), tuple(m[x] for x in sub)))
    return reference_close(carrier, gens)


def reference_normalizer_system(F, U):
    um = U.mask

    def keep(h):
        m = h.mapping
        return (h.dom_mask & um) == um and mask_of(m[x] for x in mask_members(um)) == um

    return reference_harvest(F, U.normalizer(F.S), keep)


def reference_centralizer_system(F, U):
    um = U.mask

    def keep(h):
        m = h.mapping
        return (h.dom_mask & um) == um and all(m[x] == x for x in mask_members(um))

    return reference_harvest(F, U.centralizer(F.S), keep)


def reference_class_table(pg):
    """The class table as it was before N_L(S)'s orbits: one `conjugates`
    row per x and one product per pair of D."""
    els, index = pg.elements, pg.index_of
    of = list(range(len(els)))
    for i, x in enumerate(els):
        met = {of[i]} | {of[index(z)] for z in pg.conjugates(x)}
        if len(met) > 1:
            of = [min(met) if c in met else c for c in of]
    inv, prod = {}, {}
    for i, x in enumerate(els):
        a = of[i]
        inv[a] = inv.get(a, 0) | 1 << of[index(pg.inv(x))]
        row = prod.setdefault(a, {})
        for y in pg.domain_row(x):
            b = of[index(y)]
            row[b] = row.get(b, 0) | 1 << of[index(pg.binary(x, y))]
    return partial._Classes(of, inv, prod)


def orbit_representatives(L):
    """The least element of each N_L(S)-orbit on the carrier, by
    conjugating every element by every member of the block of S_g = S."""
    N = [f for f in L.elements if L.s_g_mask(f) == L.S.mask]
    return {x for x in L.elements if x == min(L.group.conj(x, f) for f in N)}


# -- running them ---------------------------------------------------------------


def check_fusion(F):
    """The O_p references on F and on its normalizer and centralizer systems
    at fully normalized subgroups; returns the number of systems checked."""
    systems = {id(F): F}
    for V in F.subs:
        if F.is_fully_normalized(V):
            for sub in (F.normalizer_system(V), F.centralizer_system(V)):
                systems[id(sub)] = sub
    for E in systems.values():
        assert reference_find_o_p(E).mask == E.o_p().mask
    return len(systems)


def check_restriction_tables(F, conjugators):
    """F, and its normalizer and centralizer systems at every U <= S, against
    the closures they replaced; F is the fusion of a group, given by its
    members or one per C_G(S)-coset."""
    assert F._closed.key() == reference_group_fusion(F.S, conjugators)
    for U in F.subs:
        assert F.normalizer_system(U)._closed.key() == reference_normalizer_system(F, U)
        assert F.centralizer_system(U)._closed.key() == reference_centralizer_system(F, U)


def cr_keys(E):
    """The keys `is_cr_generated` generates from: every automorphism of each
    centric-radical subgroup."""
    return [(h.dom_mask, h.images) for R in E.class_sets()["cr"] for h in E.auts(R)]


def check_generated_tables(F):
    """The system `is_cr_generated` builds on each normalizer and centralizer
    system of F, against the BFS; returns the number of systems checked."""
    systems = {}
    for U in F.subs:
        for E in (F.normalizer_system(U), F.centralizer_system(U)):
            systems[id(E._closed)] = E
    for E in systems.values():
        keys = cr_keys(E)
        assert FusionSystem(E.S, _Derived(keys))._closed.key() == reference_close(E.S, keys)
    return len(systems)


@functools.lru_cache(maxsize=None)
def injective_homs(name, p):
    """A group's Sylow p-subgroup S and every injective homomorphism from a
    subgroup of S into S, as keys: images of a generating set of the
    subgroup, extended along products and kept when consistent."""
    G = any_group(name)
    S = sylow_p(G.top, p)
    keys = []
    for P in subgroups_below(S):
        gens, span = [], 1
        for x in P.members():
            if not span >> x & 1:
                gens.append(x)
                span = G.close_mask(span | 1 << x)
        for images in itertools.product(S.members(), repeat=len(gens)):
            m, queue, ok = {0: 0}, [0], True
            for x in queue:
                for g, gi in zip(gens, images):
                    y, v = G.mult(x, g), G.mult(m[x], gi)
                    if y not in m:
                        m[y] = v
                        queue.append(y)
                    ok = ok and m[y] == v
            if ok and len(set(m.values())) == len(m):
                keys.append((P.mask, tuple(m[x] for x in P.members())))
    return S, tuple(keys)


def check_domain(L):
    """The pulled-back domain test against the image test, on every pair of
    letters and every triple over the first 12, at most 100 letters strided
    from the carrier, and the domain rows against the walker on every pair;
    returns the number of words whose S_w is no object."""
    letters = L.elements[::-(-len(L.elements) // 100)]
    masks = L.delta.mask_set
    outside = 0
    for w in itertools.chain(itertools.product(letters, repeat=2),
                             itertools.product(letters[:12], repeat=3)):
        st = L.walk(w)
        inside = L._pull_back(st) in masks
        assert (st[0] in masks) == inside, w
        assert reference_walk_in_domain(L, st) == L.walk_in_domain(st), w
        if len(w) == 2:
            assert (w[1] in L.domain_row(w[0])) == L.in_domain(w), w
        outside += not inside
    return outside


def check_walker_rows(L):
    """`walk_row` against a `walk_step` per letter and `walk_in_domain` on
    each successor, at every state reached by a word of length <= 2: the
    mask without the successors, asked for first, then the successors with
    it; returns the number of states checked."""
    level, seen = [L.walk_start()], set()
    for _ in range(3):
        nxt = []
        for st in level:
            if st in seen:
                continue
            seen.add(st)
            want = [L.walk_step(st, g) for g in L.elements]
            mask = sum(1 << i for i, t in enumerate(want) if L.walk_in_domain(t))
            assert L.walk_row(st, False) == (mask, None), st
            assert L.walk_row(st) == (mask, want), st
            nxt += want
        level = nxt
    return len(seen)


def check_stabilizers(L):
    """`normalizer_in` and `centralizer_in`, which sweep the S_g blocks
    above P, against the stabilizer sweep over the whole carrier, at every
    P <= S."""
    for P in subgroups_below(L.S):
        for pointwise, part in ((False, normalizer_in), (True, centralizer_in)):
            whole = L._s_conj.stabilizer(P, L.elements, pointwise, "whole carrier")
            assert part(L, P).members == frozenset(mask_members(whole)), (P, pointwise)


def check_subgroup_test(L):
    """`subgroup_in_locality` against the pair walk on N_L(P) for every
    P <= S and on S with one more element and its inverse, at most 40
    elements strided from the carrier; returns the number of failures."""
    sets = [normalizer_in(L, P).members for P in subgroups_below(L.S)]
    S = set(L.S.members())
    sets += [S | {x, L.inv(x)} for x in L.elements[::-(-len(L.elements) // 40)]]
    got = [subgroup_in_locality(L, ms) for ms in sets]
    assert got == [reference_subgroup_in_locality(L, ms) for ms in sets]
    return sum(not ok for ok, _ in got)


# the reference sweep decides each word on its own: above this many words
# only the trivial-group sweep is compared with the orbit sweep (the s5/2
# F^q and a6/2 carriers meet the reference at length 3 in
# `tests/test_axiom_sweep.py::TestOrbitSweep`)
REFERENCE_SWEEP_WORDS = 20_000


def check_orbit_passes(L):
    """The class table and the bounded axiom sweep, which read one element
    or prefix per N_L(S)-orbit, against the passes over every element:
    the table of `reference_class_table`, and at lengths 2 and 3 under the
    word cap the sweep on the trivial group and, up to
    REFERENCE_SWEEP_WORDS, the word-by-word sweep."""
    from test_axiom_sweep import reference_check_axioms_bounded  # an import cycle
    assert partial._class_table(L) == reference_class_table(L)
    n = len(L.elements)
    for max_len in (2, 3):
        words = sum(n**k for k in range(1, max_len + 1))
        if words > caps.current().axiom_words:
            break
        got = partial._check_axioms_bounded(L, max_len)
        assert got.ok and got == partial._check_axioms_bounded(L, max_len, ())
        if words <= REFERENCE_SWEEP_WORDS:
            assert got == reference_check_axioms_bounded(L, max_len)


def check_carrier(L):
    """Every reference on one carrier; returns its partial normal subgroups."""
    check_orbit_passes(L)
    # the cut against brute force, and the closure sweep that _validate
    # skips on a carrier that is its whole cut
    assert reference_cut(L.delta) == L.delta.cut
    assert products(L, L.elements, L._carrier) <= L._carrier
    if L.full_domain:
        check_restriction_tables(L.fusion(), L.elements)
    else:
        # generated: the restrictions of the composites of conjugation maps
        assert L.fusion()._closed.key() == reference_group_fusion(L.S, L.elements)
    check_fusion(L.fusion())
    check_domain(L)
    check_walker_rows(L)
    check_stabilizers(L)
    check_subgroup_test(L)
    core = reference_invariant_core(L._s_conj, L.elements)
    assert L.full_domain == (core in L.delta.mask_set)
    assert reference_o_p_locality(L).mask == o_p_locality(L).mask == core
    cs = L.fusion().class_sets()
    cr_masks = {P.mask for P in cs["cr"]}
    if cr_masks <= L.delta.mask_set <= {P.mask for P in cs["q"]}:
        theta = reference_theta(L)
        if theta.order == 1 or L.full_domain:
            assert reference_theta_quotient(L)[0].members == theta.members
    if cr_masks <= L.delta.mask_set and is_proper(L).ok:
        reference_restrict(L, resolve_delta_spec(L.fusion(), "cr-closure"))
    for P in L.delta.members:
        for part in (reference_normalizer_in(L, P), reference_centralizer_in(L, P)):
            H = reference_perm_subgroup(L, part)
            table = H.group.s_conjugation(sylow_p(H, L.p).mask)
            assert (reference_group_core(H, L.p).mask == p_core(H, L.p).mask
                    == reference_invariant_core(table, H.members()))
            assert math.gcd(reference_p_prime_core(H, L.p).order, L.p) == 1
    normals = all_partial_normal_subgroups(L)
    for N in normals:
        assert reference_relative_core(L, N, "p").members == o_p_of(L, N).members
        assert (reference_relative_core(L, N, "p'").members
                == o_pprime_of(L, N).members)
        blocks = coset_partition(L, N)
        assert reference_coset_partition(L, N) == blocks
        if L.full_domain:
            lq = reference_quotient_locality(L, N)
            assert lq.locality.full_domain
            assert reference_block_group(L, N).order == len(blocks)
            Q = lq.locality.group
            assert Q.order == len(blocks)
            # block i is sent to its permutation, read off all its products
            assert [Q.elements[lq.rho.mapping[min(c)]] for c in blocks] == (
                reference_quotient_blocks(L, blocks))
            assert reference_kernel(lq.rho).members == N.members
    check_products(L, normals)
    return normals


def check_subsystem_localities(L):
    """The normalizer and centralizer locality references at every fully
    normalized V of a proper L; returns the number of such V."""
    F = L.fusion()
    count = 0
    for V in F.subs:
        if F.is_fully_normalized(V):
            reference_normalizer_locality(L, V)
            reference_centralizer_locality(L, V)
            count += 1
    return count


def check_growth(base, steps, grown):
    """The growth references on one chain of steps from base to grown."""
    for step in steps:
        assert reference_grown_family(step).mask_set == step.locality.delta.mask_set
        assert reference_check_seed(step.base, step.seed.R).ok
        reference_restricts_to_base(step.locality, step.base, witness=step.seed.R.mask)
        reference_step_proper(step)
    reference_restricts_to_base(grown, base)
    assert reference_absorb(base, steps, grown.delta.mask_set) is grown


def context_carriers(name, p):
    """Every carrier the verify context of a built-in pair builds: the
    cr-closure locality and its Theta-quotient, the proper localities, each
    growth step of the context's growth and of each tower's, and each tower's
    quotient and lift."""
    ctx = example(name, p)
    theta, quotient = reference_theta_quotient(ctx.cr_locality)
    assert reference_theta(ctx.cr_locality).members == theta.members
    out = [ctx.cr_locality, quotient, *ctx.proper_localities]
    for base, steps, grown in growths(ctx):
        check_growth(base, steps, grown)
        out += [base, *(step.locality for step in steps), grown]
    for _, (lq, lbarplus) in ctx.towers:
        out += [lq.locality, lbarplus]
    return list({id(L): L for L in out}.values())


class TestDroppedGuardsHold:
    @pytest.mark.parametrize("name,p", BUILTIN_PAIRS)
    def test_every_context_carrier(self, name, p):
        # every carrier here is full-domain, so each partial normal
        # subgroup also builds a quotient
        carriers = context_carriers(name, p)
        assert all(L.full_domain for L in carriers)
        for L in carriers:
            check_carrier(L)

    @pytest.mark.parametrize("name,p", BUILTIN_PAIRS)
    def test_normalizer_and_centralizer_localities(self, name, p):
        assert sum(check_subsystem_localities(L)
                   for L in example(name, p).proper_localities) > 0

    def test_partial_domain_growth(self):
        fe = a6_growth()
        check_growth(fe.base, fe.steps, fe.locality)
        carriers = [fe.base, *(step.locality for step in fe.steps)]
        assert not any(L.full_domain for L in carriers)
        # the image test decides words outside D here, not only the cut,
        # and the subgroup test fails on some sets, with a witness
        assert all(check_domain(L) > 0 for L in carriers)
        assert all(check_subgroup_test(L) > 0 for L in carriers)
        for L in carriers:
            check_carrier(L)

    @pytest.mark.parametrize("name,p", [("s6", 2), ("m11", 2)])
    def test_frontier_growths(self, name, p):
        fe = frontier_growth(name, p)
        assert len(fe.steps) > 1 and any(step.created for step in fe.steps)
        check_growth(fe.base, fe.steps, fe.locality)

    @pytest.mark.parametrize("spec", ["q", "all-nontrivial"])
    def test_partial_domain_bases(self, spec):
        # on S5 at 2 both carriers are the 56 elements with S_g nontrivial,
        # and their core is 1, which neither family holds, so neither
        # carrier has full domain
        G, F = setup("s5")
        L = locality_from_group(G, 2, resolve_delta_spec(F, spec))
        core = o_p_locality(L)
        assert L._classes is None  # the core builds no class table
        assert (len(L.elements), core.order) == (56, 1)
        assert core.mask not in L.delta.mask_set and not L.full_domain
        check_carrier(L)

    def test_join_closure_on_systems_a_caller_builds(self):
        # the argument for join-closure holds in every system, not only in
        # saturated ones: systems generated by S6's Sylow 2-subgroup and one
        # conjugation map, as a caller may build them
        G = group_from_generators(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])
        S = sylow_p(G.top, 2)
        incomparable = 0
        for g in range(0, G.order, 48):
            E = conjugation_fusion(S, [g])
            assert reference_find_o_p(E).mask == E.o_p().mask
            normals = [T for T in E.subs
                       if is_normal_in(T, S) and E.is_normal_in_system(T)]
            incomparable += sum(not U.le(V) and not V.le(U)
                                for U, V in itertools.combinations(normals, 2))
        assert incomparable == 839


class TestProperHandedOn:
    """A growth step takes a proper base's verdict by the argument in
    `elementary_expand`; from any other base it computes properness in full."""

    @staticmethod
    def fresh_base(name, p, spec):
        G = builtin(name)
        return locality_from_group(G, p, resolve_delta_spec(fusion_from_group(G, p), spec))

    @staticmethod
    def sweeps(monkeypatch):
        # the objects whose normalizer `is_proper` sweeps
        swept = []

        def counted(L, P):
            swept.append((id(L), P.mask))
            return normalizer_in(L, P)
        monkeypatch.setattr(locality, "normalizer_in", counted)
        return swept

    @pytest.mark.parametrize("forced", [False, True])
    def test_non_proper_bases_keep_the_full_computation(self, monkeypatch, forced):
        # forced: N_L(R) passes, so only the base's verdict stops the hand-on
        if forced:
            monkeypatch.setattr(expansion, "is_characteristic_p", lambda M, p: True)
        steps = 0
        for name, p in [("c6", 2), ("c6", 3), ("s5", 3)]:
            for spec in ["cr-closure", "c", "q", "all-nontrivial"]:
                L = self.fresh_base(name, p, spec)
                assert not check_proper(L)
                step = elementary_expand(L, Subgroup(L.group, 1))
                if step.seed is None:  # the trivial subgroup is already an object
                    continue
                assert not check_proper(step.locality)
                assert step.trace["checks"]["proper"] is False
                steps += 1
        assert steps == 10

    @pytest.mark.parametrize("name,char_p", [("s5", True), ("d8", True), ("s5", False)])
    def test_steps_sweep_no_object_unless_n_l_r_fails(self, monkeypatch, name, char_p):
        L = self.fresh_base(name, 2, "cr-closure")
        swept = self.sweeps(monkeypatch)
        if not char_p:
            # no built-in or frontier seed has a proper base whose N_L(R) is
            # not of characteristic p, so that verdict is forced to fail
            monkeypatch.setattr(expansion, "is_characteristic_p", lambda M, p: False)
        fe = full_expand(L, resolve_delta_spec(L.fusion(), "s"))
        assert len(fe.steps) > 1
        full = [L] if char_p else [L, *(step.locality for step in fe.steps)]
        assert sorted(swept) == sorted((id(K), P.mask) for K in full for P in K.delta.members)
        for step in fe.steps:
            assert step.trace["checks"]["proper"] and check_proper(step.locality)


class TestProductIsOneNormalClosure:
    """MN of partial normal M and N is read off the class table as their
    normal closure, and equals the D-products of M x N."""

    @pytest.mark.parametrize("name,p", [(g, p) for g in ("a4", "a5", "c6", "d8", "s3",
                                                         "s4", "s5") for p in (2, 3, 5)])
    def test_builtin_bases_and_growths(self, name, p):
        ctx = example(name, p)
        for L in (ctx.base, ctx.growth.locality):
            check_products(L, all_partial_normal_subgroups(L))

    @pytest.mark.parametrize("name,p", [("a6", 2), ("s6", 2), ("m11", 3)])
    def test_frontier_bases_and_growths(self, name, p):
        fe = frontier_growth(name, p)
        for L in (fe.base, fe.locality):
            normals = all_partial_normal_subgroups(L)
            assert len(normals) > 1
            check_products(L, normals)


class TestOrbitClassTable:
    """The class table read on N_L(S)-orbit representatives against the
    table over every element, on fresh copies of every carrier of the
    frontier growths."""

    @pytest.mark.parametrize("name,p", [("a6", 2), ("s6", 2), ("m11", 2), ("m11", 3)])
    def test_frontier_bases_and_growths(self, name, p):
        fe = frontier_growth(name, p)
        carriers = [fe.base, *(step.locality for step in fe.steps), fe.locality]
        for K in {id(K): K for K in carriers}.values():
            L = Locality(K.group, K.elements, K.S, K.delta, K.p)
            assert L.automorphisms()
            assert partial._class_table(L) == reference_class_table(L)


# the built-in pairs and the benchmark's generated groups at their primes
TABLE_PAIRS = [*BUILTIN_PAIRS, ("d16", 2), ("c5xc5", 5), ("s6", 3), ("s7", 7)]


class TestOneStabilizerSweep:
    """N(P) and C(P) inside S, inside a locality and in `is_characteristic_p`
    read S's conjugation table at P's generators (`SConjugation.stabilizer`)."""

    @pytest.mark.parametrize("name,p", TABLE_PAIRS)
    def test_matches_the_conj_sweep(self, name, p):
        G = any_group(name)
        S = sylow_p(G.top, p)
        table = G.s_conjugation(S.mask)
        for P in subgroups_below(S):
            for pointwise, sweep in ((False, P.normalizer), (True, P.centralizer)):
                assert sweep(S).mask == reference_stabilizer(P, S, pointwise).mask
                # over the whole group, so at g outside S too
                assert (table.stabilizer(P, range(G.order), pointwise, "stabilizer")
                        == reference_stabilizer(P, G.top, pointwise).mask)

    def test_matches_the_s_g_sweep_on_a_partial_domain(self):
        L = loc("s5", "q")
        assert not L.full_domain
        outside = 0
        for P in subgroups_below(L.S):
            assert (normalizer_in(L, P).members
                    == reference_stabilizer_in(L, P, False).members)
            assert (centralizer_in(L, P).members
                    == reference_stabilizer_in(L, P, True).members)
            outside += sum(L.s_g_mask(g) & P.mask != P.mask for g in L.elements)
        # the sweep meets g with P not in S_g, which the dropped S_g test
        # refused, and still agrees with it
        assert outside > 0

    def test_no_conj_call(self, monkeypatch):
        G = builtin.__wrapped__("s5")  # a fresh group, with no stabilizer memo
        S = sylow_p(G.top, 2)
        subs = subgroups_below(S)
        calls = []
        real = FiniteGroup.conj

        def counted(self, x, g):
            calls.append((x, g))
            return real(self, x, g)

        monkeypatch.setattr(FiniteGroup, "conj", counted)
        for P in subs:
            P.normalizer(S)
            P.centralizer(S)
        assert calls == []
        L = locality_from_group(G, 2, resolve_delta_spec(fusion_from_group(G, 2),
                                                         "cr-closure"))
        calls.clear()
        for P in subs:
            normalizer_in(L, P)
            centralizer_in(L, P)
        for P in L.delta.members:
            is_characteristic_p(Subgroup(G, mask_of(normalizer_in(L, P).members)), 2)
        assert calls == []


class TestArguedTowerChecks:
    """`expand_quotient`'s argued legs, each computed from (L, N, growth)."""

    @staticmethod
    def context(name, p):
        ctx = example(name, p) if (name, p) in BUILTIN_PAIRS else ExampleContext(
            any_group(name), p)
        assert ctx.base.full_domain
        return ctx

    @pytest.mark.parametrize("name,p", [*BUILTIN_PAIRS, ("d16", 2), ("c5xc5", 5),
                                        ("s6", 3)])
    def test_every_tower(self, name, p):
        ctx = self.context(name, p)
        assert ctx.towers
        for N, _ in ctx.towers:
            ref = reference_tower_checks(ctx.base, N, ctx.growth)
            assert len(ref) == 5 and all(ref.values()), ref

    def test_moved_kernel_element_is_caught(self):
        # negative control: send one element of N to another block
        ctx = self.context("s4", 2)
        N, (lq, _) = next((N, tower) for N, tower in ctx.towers
                          if N.order > 1 and len(tower[0].blocks) > 1)
        send = dict(lq.rho.mapping)
        x = next(x for x in sorted(N.members) if x != ctx.base.identity)
        send[x] = next(y for y in lq.locality.elements if y != lq.locality.identity)
        ref = reference_tower_checks(ctx.base, N, ctx.growth, send)
        assert not ref["kernel_matches_lift"]


class TestRestrictionTables:
    """Systems read as restrictions against the closures they replaced."""

    @pytest.mark.parametrize("name,p", [*BUILTIN_PAIRS, ("d16", 2), ("c5xc5", 5),
                                        ("s6", 3), ("s7", 7)])
    def test_group_normalizer_and_centralizer_systems(self, name, p):
        G = any_group(name)
        F = fusion_from_group(G, p)
        check_restriction_tables(F, G.s_conjugation(F.S.mask).coset_representatives())


class TestGeneratedTables:
    """Systems generated by composites against the BFS they replaced."""

    @pytest.mark.parametrize("name,p", [*BUILTIN_PAIRS, ("d16", 2), ("c5xc5", 5),
                                        ("s6", 3), ("s7", 7)])
    def test_cr_generated_subsystems(self, name, p):
        assert check_generated_tables(fusion_from_group(any_group(name), p)) > 0

    @pytest.mark.parametrize("name", ["s4", "s5", "a5", "d8"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_caller_maps(self, name, data):
        S, homs = injective_homs(name, 2)
        keys = data.draw(st.lists(st.sampled_from(homs), min_size=1, max_size=3))
        E = FusionSystem(S, [FHom(S.group, dom, images) for dom, images in keys])
        assert E._closed.key() == reference_close(S, keys)


class TestCayleyRows:
    """Cayley rows read along the generator tree against composed rows."""

    @staticmethod
    def check_rows(G):
        for i in range(G.order):
            assert tuple(G.mult(i, j) for j in range(G.order)) == reference_row(G, i)

    @pytest.mark.parametrize("name", [*dict.fromkeys(name for name, _ in BUILTIN_PAIRS),
                                      "d16", "c5xc5", "s6"])
    def test_every_row(self, name):
        self.check_rows(any_group(name))

    def test_every_row_of_a_block_group(self):
        # S4 modulo V4: a group closed from block permutations
        G = builtin("s4")
        L = locality_from_group(G, 2, resolve_delta_spec(fusion_from_group(G, 2), "all"))
        N = PartialSubgroup(L, frozenset(p_core(G.top, 2).members()))
        Q = quotient_locality(L, N).locality.group
        assert Q.order == 6 and Q.degree == 6
        self.check_rows(Q)

    def test_generators_that_do_not_generate_raise_at_the_first_row(self):
        G = builtin("s4")
        copy = FiniteGroup(G.elements, G.degree, [G.elements[G.generators[0]]])
        with pytest.raises(InputError, match="generators do not generate"):
            copy.mult(1, 1)
        # the full generating set builds the same rows as the group
        copy = FiniteGroup(G.elements, G.degree, [G.elements[g] for g in G.generators])
        self.check_rows(copy)


@st.composite
def generator_lists(draw, max_degree=7):
    """Generator lists of degree at most max_degree, with the identity,
    repeats and products of earlier generators mixed in."""
    # Hypothesis leans to simple draws, so the degree leans to max_degree
    # and half the permutations come from a seeded shuffle, which mostly
    # generates A_n or S_n
    degree = max_degree - draw(st.integers(0, max_degree - 1))
    shuffled = st.randoms(use_true_random=False).map(
        lambda r: tuple(r.sample(range(degree), degree)))
    perm = st.one_of(st.permutations(range(degree)).map(tuple), shuffled)
    gens = draw(st.lists(perm, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["identity", "repeat", "product"]))
        if kind == "identity" or not gens:
            extra = tuple(range(degree))
        elif kind == "repeat":
            extra = draw(st.sampled_from(gens))
        else:
            extra = compose(draw(st.sampled_from(gens)), draw(st.sampled_from(gens)))
        gens.insert(draw(st.integers(0, len(gens))), extra)
    return degree, gens


class TestCosetClosure:
    """`group_from_generators` closes by cosets; the breadth-first closure
    it replaced gives the same elements, kept generators and cap errors."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(drawn=generator_lists())
    def test_same_group_and_generators_as_the_breadth_first_closure(self, drawn):
        degree, gens = drawn
        elements, kept = reference_closure(degree, gens, math.inf)
        G = group_from_generators(degree, gens)
        assert G.elements == tuple(sorted(elements))
        assert [G.elements[g] for g in G.generators] == kept

    @pytest.mark.parametrize("degree,gens", [
        # S4 and A5 from their files' generators
        (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
        (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
        # S4 x C2: the last generator adds one coset, the size of the
        # group before it, so the cap falls inside that one coset
        (6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]),
    ])
    def test_the_cap_holds_at_the_group_order(self, degree, gens):
        order = len(reference_closure(degree, gens, math.inf)[0])
        for cap in (order - 1, order):
            caps.override(caps.Caps(group_order=cap))
            try:
                if cap < order:
                    with pytest.raises(CapExceeded, match="group order"):
                        reference_closure(degree, gens, cap)
                    with pytest.raises(CapExceeded, match="group order") as exc:
                        group_from_generators(degree, gens)
                    assert str(exc.value) == str(CapExceeded("group order", cap))
                else:
                    assert group_from_generators(degree, gens).order == order
            finally:
                caps.override(None)


class TestOrdinalClosure:
    """`close_mask` and `Subgroup.generators` close by cosets over ordinals;
    the breadth-first closure they replaced gives the same masks, and the
    greedy scan that re-closed for each kept generator the same generators."""

    @pytest.mark.parametrize("name,p", [("s5", 2), ("s6", 3), ("d16", 2)])
    def test_every_join_of_the_lattice_walk(self, monkeypatch, name, p):
        G = any_group(name)  # a fresh group: subgroups_below memoizes per group
        S = sylow_p(G.top, p)
        joins = []
        close = FiniteGroup.close_mask

        def recording(self, seed):
            joins.append((seed, close(self, seed)))
            return joins[-1][1]

        monkeypatch.setattr(FiniteGroup, "close_mask", recording)
        subgroups_below(S)
        assert len(joins) >= len(subgroups_below(S)) - 1
        for seed, got in joins:
            assert got == reference_close_mask(G, seed)

    @pytest.mark.parametrize("name,p", [*BUILTIN_PAIRS, ("s7", 7)])
    def test_greedy_generators_of_every_sylow_subgroup(self, name, p):
        G = any_group(name)
        for H in subgroups_below(sylow_p(G.top, p)):
            assert H.generators() == reference_generators(H)


class TestCutClosure:
    """`Locality` skips its closure sweep on a carrier that is its whole cut
    G|Delta and keeps it on every other carrier."""

    @staticmethod
    def sweeps(monkeypatch):
        """The `products` calls `_validate` makes from now on."""
        calls, inside = [], []
        real_products, real_validate = locality.products, Locality._validate

        def counted(*args):
            if inside:
                calls.append(args)
            return real_products(*args)

        def validate(self):
            inside.append(self)
            try:
                return real_validate(self)
            finally:
                inside.pop()

        monkeypatch.setattr(locality, "products", counted)
        monkeypatch.setattr(Locality, "_validate", validate)
        return calls

    def test_one_element_short_of_the_cut_escapes(self):
        # S4 at p = 2 over the overgroups of V4 is its whole cut; dropping
        # a transposition outside S keeps the carrier inversion-closed and
        # holding S, and some domain product lands on the missing element
        G = builtin("s4")
        S = sylow_p(G.top, 2)
        V4 = p_core(G.top, 2)
        delta = object_set(S, [Q for Q in subgroups_below(S) if V4.le(Q)])
        t = next(x for x in sorted(delta.cut) if x not in S and G.inv(x) == x)
        carrier = sorted(delta.cut - {t})
        with pytest.raises(PropertyViolation,
                           match="^domain product escapes the carrier$") as exc:
            Locality(G, carrier, S, delta, 2)
        # the witness of the full sweep: the first failing pair in carrier
        # order, each pair decided by its own walk
        U = UncheckedLocality(G, carrier, S, delta, 2)
        assert exc.value.witness == next(
            (g, h) for g, h in itertools.product(carrier, repeat=2)
            if U.in_domain((g, h)) and G.mult(g, h) not in carrier)

    @pytest.mark.parametrize("spec", ["cr-closure", "c", "q"])
    def test_no_sweep_on_the_cut_of_a_group(self, monkeypatch, spec):
        G, F = setup("s5")
        delta = resolve_delta_spec(F, spec)
        calls = self.sweeps(monkeypatch)
        L = locality_from_group(G, 2, delta)
        assert L._carrier == L.delta.cut and calls == []

    def test_no_sweep_on_a_restriction_to_the_centric_objects(self, monkeypatch):
        G, F = setup("s5")
        Lq = locality_from_group(G, 2, resolve_delta_spec(F, "q"))
        calls = self.sweeps(monkeypatch)
        Lc = restrict(Lq, resolve_delta_spec(F, "c"))
        assert len(Lc.elements) < len(Lq.elements) and calls == []

    def test_no_sweep_on_a_theta_quotient(self, monkeypatch):
        G = builtin("c6")
        L = locality_from_group(G, 2, [sylow_p(G.top, 2)])
        calls = self.sweeps(monkeypatch)
        theta, quotient = theta_quotient(L)
        assert theta.order == 3 and quotient is not L and calls == []

    def test_one_sweep_on_a_grown_carrier_short_of_its_cut(self, monkeypatch):
        _, F = setup("s5")
        L = loc("s5", "c")
        R = swap_type(L.S, F)
        calls = self.sweeps(monkeypatch)
        grown = elementary_expand(L, R).locality
        assert grown._carrier < grown.delta.cut and len(calls) == 1
