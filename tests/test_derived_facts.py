"""Guards that src/ dropped because a stated argument implies them.

Each `reference_*` function below is the dropped code with its guard, as it
stood before; the argument that replaced the guard sits beside the library
code.  `check_carrier` runs every reference on one carrier and compares its
answer with the library's.  It runs over every carrier that the verify
contexts of the built-in pairs build (towers included), over the A6 growth on
partial-domain bases, and over the random groups of
`tests/test_random_groups.py`.
"""

import itertools
import math

import pytest

from llab.errors import PropertyViolation
from llab.fusion import conjugation_fusion
from llab.locality import (
    _product_set,
    centralizer_in,
    normalizer_in,
    o_p_of,
    o_pprime_of,
    quotient_locality,
    theta_quotient,
)
from llab.partial import (
    PartialSubgroup,
    all_partial_normal_subgroups,
    coset_partition,
    is_partial_normal,
    right_coset,
)
from llab.permgroup import (
    group_from_generators,
    normal_subgroups,
    p_prime_core,
    sylow_p,
)
from test_expansion import a6_growth, example, growths
from test_fusion import BUILTIN_PAIRS


# -- the dropped code -----------------------------------------------------------


def reference_find_o_p(F):
    """`FusionSystem._find_o_p` with its join-closure and uniqueness guards."""
    normals = [
        T
        for T in F.subs
        if T.is_normal_in(F.S) and F.is_normal_in_system(T)
    ]
    top = normals[0]
    for U, V in itertools.combinations(normals, 2):
        if U.join(V) not in normals:
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


def reference_p_prime_core(H, p):
    """`permgroup.p_prime_core` with its uniqueness guard."""
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
    cosets = {right_coset(pg, sub, g) for g in pg.elements}
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
    maximal.sort(key=lambda c: min(pg.sort_key(x) for x in c))
    return tuple(maximal)


def reference_kernel(hom):
    """`PGHom.kernel` with its normality guard."""
    hom._require_hom()
    e = hom.target.identity
    ker = PartialSubgroup(
        hom.source,
        frozenset(x for x in hom.source.elements if hom.mapping[x] == e),
    )
    if not is_partial_normal(hom.source, ker):
        raise PropertyViolation("kernel is not partial normal", witness=ker)
    return ker


def reference_block_group(L, N):
    """The block group of `quotient_locality`, with its regularity guard."""
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
    return Q


def reference_relative_core(L, N, kind):
    """`_relative_core` with its empty-family and O^{p'} guards."""
    if not is_partial_normal(L, N):
        raise AssertionError("relative core needs a partial normal subgroup")
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


def check_carrier(L):
    """Every reference on one carrier; returns its partial normal subgroups."""
    check_fusion(L.fusion())
    for P in L.delta.members:
        for part in (normalizer_in(L, P), centralizer_in(L, P)):
            H = L.perm_subgroup(part)
            assert reference_p_prime_core(H, L.p).mask == p_prime_core(H, L.p).mask
    normals = all_partial_normal_subgroups(L)
    for N in normals:
        assert reference_relative_core(L, N, "p").members == o_p_of(L, N).members
        assert (reference_relative_core(L, N, "p'").members
                == o_pprime_of(L, N).members)
        blocks = coset_partition(L, N)
        assert reference_coset_partition(L, N) == blocks
        if L.full_domain:
            lq = quotient_locality(L, N)
            assert reference_block_group(L, N).order == len(blocks)
            assert lq.locality.group.order == len(blocks)
            assert reference_kernel(lq.rho).members == N.members
    return normals


def context_carriers(name, p):
    """Every carrier the verify context of a built-in pair builds: the
    cr-closure locality and its Theta-quotient, the proper localities, each
    growth step of the context's growth and of each tower's, and each tower's
    quotient and lift."""
    ctx = example(name, p)
    out = [ctx.cr_locality, theta_quotient(ctx.cr_locality)[1],
           *ctx.proper_localities]
    for base, steps, grown in growths(ctx):
        out += [base, *(step.locality for step in steps), grown]
    for _, rep in ctx.towers:
        out += [rep.lbar, rep.lbarplus, rep.lplus]
        assert reference_kernel(rep.rho_plus).members == rep.nplus.members
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

    def test_partial_domain_growth(self):
        fe = a6_growth()
        carriers = [fe.base, *(step.locality for step in fe.steps)]
        assert not any(L.full_domain for L in carriers)
        for L in carriers:
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
                       if T.is_normal_in(S) and E.is_normal_in_system(T)]
            incomparable += sum(not U.le(V) and not V.le(U)
                                for U, V in itertools.combinations(normals, 2))
        assert incomparable == 839
