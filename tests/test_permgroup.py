"""Permutation-group core.

Expected values were computed by the independent calculators in
tests/oracles.py (run it as a script to regenerate) and frozen here.
"""

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from llab.permgroup import (
    FiniteGroup, Subgroup,
    group_from_generators, subgroups_below,
    sylow_p, p_core, is_characteristic_p,
    identity_perm, pmul, pinv, perm_order, cycles_str,
    mask_of, mask_members, is_prime, _p_part,
)
from llab import cli, permgroup
from llab.errors import InputError, CapExceeded, PropertyViolation
from llab.locality import object_set
from bench.workloads import generated_groups
import test_derived_facts
from test_derived_facts import (TABLE_PAIRS, compose, normal_subgroups,
                                reference_close_mask,
                                reference_coset_representatives, reference_cut,
                                reference_generators, reference_is_closed_mask,
                                reference_p_prime_core, reference_stabilizer)
from test_fusion import BUILTIN_PAIRS

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"
FRONTIER = Path(__file__).resolve().parent / "frontier"


def load(name):
    spec = json.loads((DATA / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


@pytest.fixture(scope="module")
def s4():
    return load("s4")


@pytest.fixture(scope="module")
def s5():
    return load("s5")


@functools.cache
def cached_s5():
    return load("s5")


# --- permutation arithmetic -------------------------------------------------

perms5 = st.permutations(range(5)).map(tuple)


@given(perms5, perms5)
def test_product_applies_left_factor_first(a, b):
    assert all(pmul(a, b)[i] == b[a[i]] for i in range(5))


@given(perms5)
def test_inverse(a):
    assert pmul(a, pinv(a)) == identity_perm(5)
    assert pmul(pinv(a), a) == identity_perm(5)


@given(perms5, perms5, perms5)
def test_conjugation_is_a_right_action(x, g, h):
    G = cached_s5()
    x, g, h = (G.index_of(a) for a in (x, g, h))
    assert G.conj(G.conj(x, g), h) == G.conj(x, G.mult(g, h))
    gp = G.elements[g]
    assert G.elements[G.conj(x, g)] == pmul(pmul(pinv(gp), G.elements[x]), gp)


def test_product_on_degrees_one_and_two():
    # quotient realizations produce degree-1 groups
    assert pmul((0,), (0,)) == (0,)
    assert pmul((1, 0), (1, 0)) == (0, 1)
    assert pmul((0, 1), (1, 0)) == (1, 0)
    assert pmul((1, 0), (0, 1)) == (1, 0)
    assert group_from_generators(1, [[0]]).elements == ((0,),)
    assert group_from_generators(2, [[1, 0]]).elements == ((0, 1), (1, 0))
    # a degree-1 group that keeps the identity as a generator conjugates by
    # it in the walk, where a one-index getter would return a scalar
    G = FiniteGroup([(0,)], 1, [(0,)])
    table = G.s_conjugation(1)
    assert table.coset_representatives() == table.centralizer() == (0,)
    assert G.conj_images((0, 0), 0) == (0, 0) and table.coset(0) == (0,)


def test_cycle_notation():
    p = (2, 3, 0, 1, 4)
    assert cycles_str(p) == "(1 3)(2 4)"
    assert cycles_str(identity_perm(4)) == "()"
    assert perm_order(p) == 2
    assert perm_order((1, 2, 3, 4, 0)) == 5


# --- group construction -----------------------------------------------------

def test_identity_is_ordinal_zero(s4):
    assert s4.elements[0] == identity_perm(4)
    assert s4.order == 24


def test_orders_of_builtins():
    for name, order in [("s3", 6), ("s4", 24), ("s5", 120), ("a4", 12),
                        ("a5", 60), ("c6", 6), ("d8", 8)]:
        assert load(name).order == order


def test_group_arithmetic_matches_tuples(s4):
    for i in range(0, 24, 5):
        for j in range(0, 24, 7):
            k = s4.mult(i, j)
            assert s4.elements[k] == pmul(s4.elements[i], s4.elements[j])
        assert pmul(s4.elements[i], s4.elements[s4.inv(i)]) == identity_perm(4)


def test_group_order_cap(monkeypatch):
    from llab import caps
    caps.override(caps.Caps(group_order=10))
    try:
        with pytest.raises(CapExceeded):
            load("s4")
    finally:
        caps.override(None)


def test_rejects_non_permutation():
    with pytest.raises(InputError):
        group_from_generators(3, [[0, 0, 1]])


# --- subgroup lattice -------------------------------------------------------

# counts frozen from the oracle (which asserts the textbook values)
SUBGROUP_COUNTS = {"s3": 6, "d8": 10, "s4": 30, "a4": 10, "c6": 4,
                   "a5": 59, "s5": 156}


@pytest.mark.parametrize("name,count", sorted(SUBGROUP_COUNTS.items()))
def test_subgroup_counts(name, count):
    assert len(subgroups_below(load(name).top)) == count


def test_lattice_is_canonically_sorted(s4):
    subs = subgroups_below(s4.top)
    keys = [H.key() for H in subs]
    assert keys == sorted(keys)
    assert subs[0].order == 24
    assert subs[-1].order == 1


def test_subgroups_below_filters(s4):
    S = sylow_p(s4.top, 2)
    below = subgroups_below(S)
    assert len(below) == 10
    assert all(H.le(S) for H in below)


def test_every_enumerated_mask_is_closed(s4):
    for H in subgroups_below(s4.top):
        assert reference_is_closed_mask(s4, H.mask)
        assert s4.order % H.order == 0


def test_generators_regenerate(s4):
    for H in subgroups_below(s4.top):
        assert s4.close_mask(mask_of(H.generators())) == H.mask


@functools.cache
def closure_group(name):
    """A built-in group, else one from tests/frontier."""
    path = DATA / f"{name}.json"
    spec = json.loads((path if path.exists() else FRONTIER / f"{name}.json").read_text())
    return group_from_generators(spec["degree"], spec["generators"])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_close_mask_matches_the_breadth_first_closure(data):
    G = closure_group(data.draw(st.sampled_from(["s4", "s5", "d16", "a6"])))
    seed = mask_of(data.draw(st.lists(st.integers(0, G.order - 1), max_size=4)))
    assert G.close_mask(seed) == reference_close_mask(G, seed)


@pytest.mark.parametrize("cycles", [
    # two transpositions: their product, of order 3, is missing
    [(1, 0, 2, 3), (0, 2, 1, 3)],
    # a 3-cycle first: the scan stops at the mask's size on <c>, not the mask
    [(0, 2, 3, 1), (1, 0, 2, 3)],
])
def test_generators_of_a_mask_that_is_not_closed_raise(s4, cycles):
    H = Subgroup(s4, 1 | mask_of(s4.index_of(c) for c in cycles))
    for scan in (Subgroup.generators, reference_generators):
        with pytest.raises(InputError, match="mask is not multiplicatively closed"):
            scan(H)


def test_a_join_costs_cosets_not_members_times_seeds(monkeypatch):
    # <H, g> = S for H of index 2 in S6's Sylow 2-subgroup S, order 16
    G = closure_group("s6")
    S = sylow_p(G.top, 2)
    H = next(K for K in subgroups_below(S) if K.order == 8)
    g = next(x for x in S.members() if x not in H)
    seed = H.mask | 1 << g
    kept = len(permgroup._grow(0, mask_members(seed), G.mult, G.order)[1])
    calls = []
    mult = FiniteGroup.mult
    monkeypatch.setattr(FiniteGroup, "mult",
                        lambda self, i, j: calls.append(1) or mult(self, i, j))
    assert G.close_mask(seed) == S.mask
    cosets = len(calls)
    calls.clear()
    assert reference_close_mask(G, seed) == S.mask
    # the breadth-first closure multiplies each of K by each seed member
    assert len(calls) == S.order * (H.order + 1) == 144
    # one product per element, one probe per kept generator and coset:
    # 25 products here, 4 kept generators, a bound of 80
    assert cosets <= S.order + kept * S.order


# --- normalizer / centralizer ----------------------------------------------

def v4_of(s4):
    gens = [s4.index_of((1, 0, 3, 2)), s4.index_of((2, 3, 0, 1))]
    return Subgroup(s4, s4.close_mask(mask_of(gens)))


def test_normalizer_centralizer_of_v4(s4):
    V4 = v4_of(s4)
    assert V4.order == 4
    assert V4.normalizer(s4.top).order == 24      # oracle: N_S4(V4) = S4
    assert V4.centralizer(s4.top).order == 4      # oracle: C_S4(V4) = V4
    assert V4.centralizer(s4.top).mask == V4.mask


def test_normalizer_within(s4):
    V4 = v4_of(s4)
    S = sylow_p(s4.top, 2)
    assert V4.normalizer(S).mask == S.mask
    E = Subgroup(s4, s4.close_mask(mask_of([s4.index_of((1, 0, 2, 3))])))
    assert E.centralizer(S).order == 4


def test_normalizer_requires_a_scope_holding_p(s4):
    V4 = v4_of(s4)
    C3 = Subgroup(s4, s4.close_mask(mask_of([s4.index_of((1, 2, 0, 3))])))
    for name in ("normalizer", "centralizer"):
        with pytest.raises(InputError, match=f"^{name} expects P <= S$"):
            getattr(V4, name)(C3)


def test_center():
    d8 = load("d8")
    Z = d8.top.centralizer(d8.top)
    assert Z.order == 2
    s3 = load("s3")
    assert s3.top.centralizer(s3.top).order == 1


# --- sylow and cores --------------------------------------------------------

def test_sylow_orders(s4, s5):
    assert sylow_p(s4.top, 2).order == 8
    assert sylow_p(s4.top, 3).order == 3
    assert sylow_p(s5.top, 2).order == 8
    assert sylow_p(s5.top, 5).order == 5
    assert sylow_p(load("c6").top, 2).order == 2


def test_sylow_is_deterministic_and_canonical(s4, s5):
    # frozen from the oracle's replay of the growth rule
    S = sylow_p(s4.top, 2)
    assert sorted(s4.elements[i] for i in S.members()) == [
        (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2),
        (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0)]
    S5 = sylow_p(s5.top, 2)
    assert sorted(s5.elements[i] for i in S5.members()) == [
        (0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4), (0, 2, 1, 4, 3),
        (0, 3, 4, 1, 2), (0, 3, 4, 2, 1), (0, 4, 3, 1, 2), (0, 4, 3, 2, 1)]


def test_p_core(s4, s5):
    assert p_core(s4.top, 2).mask == v4_of(s4).mask   # O_2(S4) = V4
    assert p_core(s4.top, 3).order == 1
    assert p_core(s5.top, 2).order == 1               # O_2(S5) = 1
    assert p_core(load("a4").top, 2).order == 4
    assert p_core(load("d8").top, 2).order == 8


def test_p_prime_core():
    c6 = load("c6")
    C3 = reference_p_prime_core(c6.top, 2)
    assert C3.order == 3                          # O_2'(C6) = C3
    assert reference_p_prime_core(c6.top, 3).order == 2
    assert reference_p_prime_core(load("s4").top, 2).order == 1
    assert reference_p_prime_core(load("s3").top, 3).order == 1


@pytest.mark.parametrize("name", ["s4", "a5", "s5"])
def test_p_local_helpers_match_a_standalone_copy(name):
    # inside the ambient group, every p-local helper on a subgroup H agrees
    # with the same helper on H rebuilt as its own group, mapped back
    G = load(name)
    for H in subgroups_below(G.top):
        copy = FiniteGroup([G.elements[i] for i in H.members()], G.degree,
                           [G.elements[i] for i in H.generators()])

        def back(K):
            return mask_of(G.index_of(copy.elements[i]) for i in K.members())

        for p in (q for q in (2, 3, 5) if H.order % q == 0):
            p_part = p
            while H.order % (p_part * p) == 0:
                p_part *= p
            P = sylow_p(H, p)
            assert P.le(H) and P.order == p_part
            assert P.mask == back(sylow_p(copy.top, p))
            assert p_core(H, p).mask == back(p_core(copy.top, p))
            assert (reference_p_prime_core(H, p).mask
                    == back(reference_p_prime_core(copy.top, p)))
            assert is_characteristic_p(H, p) == is_characteristic_p(copy.top, p)


def test_is_characteristic_p(s4):
    assert is_characteristic_p(s4.top, 2)             # C_S4(V4) = V4
    assert is_characteristic_p(load("a4").top, 2)
    assert is_characteristic_p(load("d8").top, 2)
    assert not is_characteristic_p(load("c6").top, 2)
    assert not is_characteristic_p(load("s5").top, 2)


def test_normal_subgroups(s4):
    masks = {H.order for H in normal_subgroups(s4.top)}
    assert masks == {1, 4, 12, 24}
    assert {H.order for H in normal_subgroups(load("a5").top)} == {1, 60}


def test_mask_helpers():
    assert mask_members(0b10110) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert mask_members(0) == []


@given(st.sets(st.integers(min_value=0, max_value=5100)))
def test_mask_members_reads_every_bit(bits):
    # byte boundaries, empty bytes and masks as wide as S7's ordinals
    assert mask_members(mask_of(bits)) == sorted(bits)


# --- S-conjugation table and the first-hit Sylow scan -----------------------

def reference_sylow_p(H, p):
    """`sylow_p` as it was before the first-hit scan: each round takes the
    first eligible member of the whole normalizer N_H(P).

    N_H(P) is its own sweep over H, by `G.conj` at P's generators, so the
    reference shares no code with S's conjugation table (which would build
    a whole row of H for each g when H is large)."""
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    G = H.group
    target = _p_part(H.order, p)
    P = G.trivial
    while P.order < target:
        gens = P.generators()
        N = [g for g in H.members() if all(P.mask >> G.conj(x, g) & 1 for x in gens)]
        grown = False
        for g in N:
            if g not in P and G.is_p_element(g, p):
                P = Subgroup(G, G.close_mask(P.mask | 1 << g))
                grown = True
                break
        if not grown:
            raise PropertyViolation("Sylow growth stalled below the p-part", P)
        if not P.is_p_group(p):
            raise PropertyViolation("Sylow growth left the p-world", P)
    return P


def bench_group(name):
    spec = generated_groups()[name]
    return group_from_generators(spec["degree"], spec["generators"])


@pytest.mark.parametrize("name", ["a4", "a5", "c6", "d8", "s3", "s4", "s5",
                                  "d16", "c5xc5", "s6", "s7"])
def test_sylow_scan_matches_the_normalizer_sweep(name):
    builtin = (DATA / f"{name}.json").exists()
    G = load(name) if builtin else bench_group(name)
    # a prime dividing the order of a group of degree n is at most n
    primes = [q for q in range(2, G.degree + 1) if is_prime(q) and G.order % q == 0]
    assert primes
    # on the built-ins, every subgroup H as well as the whole group
    for H in subgroups_below(G.top) if builtin else [G.top]:
        for p in primes:
            assert sylow_p(H, p).mask == reference_sylow_p(H, p).mask


def load_any(name):
    return load(name) if (DATA / f"{name}.json").exists() else bench_group(name)


@pytest.mark.parametrize("name,p", TABLE_PAIRS)
def test_s_conjugation_table_matches_conj(name, p):
    G = load_any(name)
    S = sylow_p(G.top, p)
    table = G.s_conjugation(S.mask)
    assert G.s_conjugation(S.mask) is table
    assert table.members == tuple(S.members())
    first_of_row = {}
    for g in range(G.order):
        images = tuple(G.conj(x, g) for x in S.members())
        assert table.images(g) == images
        assert table.s_g(g) == mask_of(x for x, y in zip(S.members(), images)
                                       if y in S)
        first_of_row.setdefault(images, g)
    # one row per coset C_G(S)g; one g per coset, ascending, covering every row
    assert len(table._rows) == len(first_of_row) == (
        G.order // reference_stabilizer(S, G.top, True).order)
    reps = table.coset_representatives()
    assert list(reps) == sorted(set(reps)) and len(reps) == len(first_of_row)
    assert {table.images(r) for r in reps} == set(first_of_row)


@pytest.mark.parametrize("name,p", TABLE_PAIRS)
def test_conjugate_mask_matches_subgroup_conjugate(name, p):
    G = load_any(name)
    S = sylow_p(G.top, p)
    table = G.s_conjugation(S.mask)
    for P in subgroups_below(S):
        fixed = 0
        for g in range(G.order):
            conj = [G.conj(x, g) for x in P.members()]
            assert table.conjugate_mask(P.mask, g) == mask_of(conj)
            if conj == P.members():
                fixed |= 1 << g
        # the table's pointwise sweep, at P's generators, at every g
        assert table.stabilizer(P, range(G.order), True, "centralizer") == fixed


def test_s7_table_holds_one_row_per_coset_of_the_centralizer():
    # S7 at p = 7: C(<7-cycle>) is the cyclic group itself, so the 5040
    # conjugators give 720 distinct rows
    G = bench_group("s7")
    S = sylow_p(G.top, 7)
    table = G.s_conjugation(S.mask)
    assert len(table.coset_representatives()) == 720
    # the walk built one row per coset, before any row is read
    assert len(table._rows) == 720
    assert len({id(table.images(g)) for g in range(G.order)}) == 720
    assert len(table._rows) == 720


# the table pairs, S6 at p = 5, and S5 at p = 7, where S is trivial
WALK_PAIRS = [*TABLE_PAIRS, ("s6", 5), ("s5", 7)]


@pytest.mark.parametrize("name,p", WALK_PAIRS)
def test_walk_matches_the_labelling_sweep(name, p):
    G = load_any(name)
    S = sylow_p(G.top, p)
    table = G.s_conjugation(S.mask)
    firsts = reference_coset_representatives(G, S)
    reps = table.coset_representatives()
    labels = [G.conj_images(S.generators(), r) for r in reps]
    # exactly the sweep's labels, one per coset
    assert set(labels) == set(firsts) and len(labels) == len(firsts)
    assert mask_of(table.centralizer()) == reference_stabilizer(S, G.top, True).mask
    # the walk read each coset's row off its parent's by the generators'
    # conjugation memo; each equals the row conjugated from permutations
    for r in reps:
        row = G.conj_images(S.members(), r)
        assert table.images(r) == row
        assert table.s_g(r) == mask_of(x for x, y in zip(S.members(), row)
                                       if y in S)


@pytest.mark.parametrize("name,p", WALK_PAIRS)
def test_cut_by_cosets_matches_the_sweep(name, p):
    G = load_any(name)
    S = sylow_p(G.top, p)
    table = G.s_conjugation(S.mask)
    subs = subgroups_below(S)
    # the overgroup-closed families of the subgroups of order >= k, smallest
    # cut first, so later cuts mix filled and unfilled cosets
    for k in sorted({P.order for P in subs}, reverse=True):
        delta = object_set(S, [P for P in subs if P.order >= k])
        assert delta.cut == reference_cut(delta)
    # the rows that building the cosets filled in are each g's own
    for g in range(G.order):
        images = tuple(G.conj(x, g) for x in S.members())
        assert table.images(g) == images
        assert table.s_g(g) == mask_of(x for x, y in zip(S.members(), images)
                                       if y in S)


def test_s7_walk_labels_one_g_per_coset(monkeypatch):
    G = bench_group("s7")
    S = sylow_p(G.top, 7)
    sizes = []
    real = permgroup._conj_images

    def spy(elements, inv, index, xs, g):
        sizes.append(len(xs))
        return real(elements, inv, index, xs, g)

    monkeypatch.setattr(permgroup, "_conj_images", spy)
    table = G.s_conjugation(S.mask)
    delta = object_set(S, subgroups_below(S))
    assert len(delta.cut) == G.order
    for g in range(G.order):
        table.images(g)
    # the walk conjugates single elements, each by each generator of G at
    # most once, into the group's memo x -> x^h: S's 6 elements of order 7
    # are conjugate in G to the 720 7-cycles, so every label and row holds
    # only those and 1.  No g is labelled and no row conjugated whole from
    # permutations, where composing labels and rows took 1440 labels and a
    # row of 7 per coset.
    assert len(table._gens) == 1 and len(G.generators) == 2
    assert [len(memo) for memo, _, _ in G._memo["conj_by_gen"]] == [721, 721]
    assert sizes == []


def test_walk_refuses_generators_that_do_not_generate_the_group():
    G = load("s4")
    # the first Cayley row, in the Sylow search, already needs the tree
    with pytest.raises(InputError, match="generators do not generate"):
        copy = FiniteGroup(G.elements, G.degree, [G.elements[G.generators[0]]])
        S = sylow_p(copy.top, 3)
        copy.s_conjugation(S.mask).coset_representatives()
    # above the row cache no tree is built, and the walk's own count refuses
    G = bench_group("s7")
    copy = FiniteGroup(G.elements, G.degree, [G.elements[G.generators[0]]])
    S = sylow_p(copy.top, 7)
    with pytest.raises(InputError, match="generators do not generate"):
        copy.s_conjugation(S.mask).coset_representatives()


def test_group_keeps_only_the_generators_it_needed():
    swap, cycle = (1, 0, 2, 3), (1, 2, 3, 0)
    # the identity, a repeat and the square of the 4-cycle add nothing
    G = group_from_generators(4, [swap, swap, (0, 1, 2, 3), cycle, (2, 3, 0, 1)])
    assert G.order == 24
    assert [G.elements[i] for i in G.generators] == [swap, cycle]
    assert group_from_generators(1, [[0]]).generators == ()


def spy_on(monkeypatch, name):
    """The argument tuples of every call to permgroup's `name` from now on."""
    calls = []
    real = getattr(permgroup, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permgroup, name, spy)
    return calls


def test_s7_closure_composes_each_element_once(monkeypatch):
    spec = generated_groups()["s7"]
    G = group_from_generators(spec["degree"], spec["generators"])
    # the groups the closure passes through, one per kept generator, and
    # the cosets it lists: [K:H] at each step from H to K
    kept = [G.elements[g] for g in G.generators]
    orders = [group_from_generators(G.degree, kept[:k]).order
              for k in range(len(kept) + 1)]
    cosets = sum(big // small for small, big in zip(orders, orders[1:]))
    calls = spy_on(monkeypatch, "pmul")
    group_from_generators(spec["degree"], spec["generators"])
    # one composition per element and one per representative and generator;
    # the breadth-first closure made |gens|*|G| = 10080
    assert orders == [1, 7, 5040]
    assert len(calls) <= G.order + len(kept) * cosets < len(kept) * G.order


def test_classify_s7_inverts_few_elements(monkeypatch, capsys, tmp_path):
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(generated_groups()["s7"]))
    groups = []
    real = cli.load_group

    def load_group(p):
        groups.append(real(p))
        return groups[-1]

    monkeypatch.setattr(cli, "load_group", load_group)
    inversions = spy_on(monkeypatch, "pinv")
    assert cli.main(["classify", "--group", str(path), "--p", "7"]) == 0
    (G,) = groups
    # each inversion fills the entries of an element and its inverse
    assert G.order == 5040 and len(inversions) <= len(G._inv) < 100


@pytest.mark.parametrize("path", [DATA / "s5.json", FRONTIER / "a6.json"])
def test_inverses_on_demand_are_the_inverses(path):
    spec = json.loads(path.read_text())
    G = group_from_generators(spec["degree"], spec["generators"])
    assert len(G._inv) == 0
    for i in range(G.order):
        assert G.inv(i) == G._index[pinv(G.elements[i])]
    assert len(G._inv) == G.order


def test_an_ordinal_outside_the_group_has_no_inverse():
    # a negative ordinal once indexed the element list from its end and
    # stored its wrong inverse over the true entry of the last element
    spec = json.loads((DATA / "s5.json").read_text())
    G = group_from_generators(spec["degree"], spec["generators"])
    last = G.order - 1
    for bad in (-1, -G.order, G.order, G.order + 1):
        with pytest.raises(InputError, match="not an element ordinal"):
            G.inv(bad)
        with pytest.raises(InputError, match="not an element ordinal"):
            G.conj(1, bad)
    assert G.inv(last) == G._index[pinv(G.elements[last])]
    assert set(G._inv) == {last, G.inv(last)}


def test_sylow_scan_runs_once_per_subgroup_and_prime(monkeypatch):
    G = load("s5")
    calls = []
    real = FiniteGroup.is_p_element

    def spy(self, g, p):
        calls.append(g)
        return real(self, g, p)

    monkeypatch.setattr(FiniteGroup, "is_p_element", spy)
    P = sylow_p(G.top, 2)
    first = len(calls)
    assert first and sylow_p(G.top, 2) == P and len(calls) == first
    # the memo holds masks, not Subgroups, so it makes no cycle with G
    assert G._memo["sylow"] == {(G.top.mask, 2): P.mask}


def test_p_prime_core_of_a_p_prime_group_enumerates_no_subgroup(monkeypatch):
    G = load("s5")
    calls = []
    real = test_derived_facts.subgroups_below

    def spy(H):
        calls.append(H)
        return real(H)

    monkeypatch.setattr(test_derived_facts, "subgroups_below", spy)
    assert reference_p_prime_core(G.top, 7) == G.top
    three = sylow_p(G.top, 3)
    assert reference_p_prime_core(three, 2) == three
    assert calls == []


# --- the permutation kernels against independent arithmetic ----------------

def invert(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def peel(mask):
    """The set bits of mask, ascending, by peeling the lowest one."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.cache
def kernel_group(degree):
    """One group per degree 1-9: S_d up to S7 (the one above the Cayley row
    cache), then AGammaL(1,8) on 8 points and PSL(2,8) on 9."""
    if degree <= 2:
        return group_from_generators(degree, [list(range(degree))[::-1]])
    return closure_group({8: "agl18", 9: "psl28"}.get(degree, f"s{degree}"))


class TestKernels:
    """`pmul`, `_conj_images` and the products built on them, against
    `compose` on the permutations themselves."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.data())
    def test_products_and_conjugates(self, data):
        degree = data.draw(st.integers(1, 9))
        perm = st.permutations(range(degree)).map(tuple)
        a, b = data.draw(perm), data.draw(perm)
        assert pmul(a, b) == compose(a, b)
        G = kernel_group(degree)
        assert G.degree == degree
        ordinal = st.integers(0, G.order - 1)
        xs = data.draw(st.lists(ordinal, max_size=5))
        g = data.draw(ordinal)
        gp = G.elements[g]

        def conj(x):
            return G.index_of(compose(compose(invert(gp), G.elements[x]), gp))

        assert G.conj_images(xs, g) == tuple(map(conj, xs))
        # S: a cyclic subgroup or a Sylow subgroup, in a table of its own
        if data.draw(st.booleans()):
            S = Subgroup(G, G.close_mask(1 | 1 << data.draw(ordinal)))
        else:
            S = sylow_p(G.top, data.draw(st.sampled_from([2, 3, 5, 7])))
        table = permgroup.SConjugation(G, S.mask)
        assert table.images(g) == tuple(map(conj, S.members()))
        central = [c for c in range(G.order)
                   if all(compose(G.elements[x], G.elements[c])
                          == compose(G.elements[c], G.elements[x]) for x in S.members())]
        assert table.coset(g) == tuple(G.index_of(compose(G.elements[c], gp))
                                       for c in central)
        # a row of products, of length 0, 1 or more, below and above the
        # Cayley row cache
        js = data.draw(st.lists(ordinal, max_size=5))
        assert G.mult_row(g, js) == tuple(
            G.index_of(compose(gp, G.elements[j])) for j in js)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_products_above_the_row_cache(self, data):
        G = kernel_group(7)
        assert G.order > permgroup._MUL_CACHE_MAX_ORDER
        i, j = (data.draw(st.integers(0, G.order - 1)) for _ in range(2))
        assert G.mult(i, j) == G.index_of(compose(G.elements[i], G.elements[j]))
        assert G._mul_rows == {}

    def test_p_elements_of_s7(self):
        G = kernel_group(7)
        orders = [perm_order(a) for a in G.elements]
        for p in (2, 3, 5, 7):
            assert ([G.is_p_element(i, p) for i in range(G.order)]
                    == [_p_part(n, p) == n for n in orders])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(
        # sparse: a few members in masks as wide as A8's 20 160 ordinals
        st.sets(st.integers(0, 20159), max_size=70),
        # dense: most of a mask as wide as S5's ordinals
        st.sets(st.integers(0, 119), min_size=40),
        st.just(set())))
    def test_mask_members(self, bits):
        mask = mask_of(bits)
        assert mask_members(mask) == peel(mask) == sorted(bits)

    def test_mask_members_at_the_sparse_threshold(self):
        # 2 members: 64 bits read off the byte table, 65 by str.find; then
        # neighbouring members in a sparse mask, one high bit, a full mask
        for mask in (1 | 1 << 63, 1 | 1 << 64, 0b111 | 0b11 << 20000, 1 << 20159,
                     (1 << 120) - 1, 0):
            assert mask_members(mask) == peel(mask)
