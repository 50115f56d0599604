"""Independent ground-truth calculators for the test suite.

Everything here works on raw permutation tuples (0-based images, left-to-right
composition) plus sympy primitives. Nothing imports llab: the expected values
frozen into the tests come from a second, structurally different computation
path. Known textbook counts (subgroup totals for S3, D8, S4, A4, S5, ...) are
asserted inside the oracle itself as sanity anchors.

Run as a script to print every frozen value:

    python tests/oracles.py
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

from sympy.combinatorics import Permutation, PermutationGroup

DATA = Path(__file__).resolve().parent.parent / "src" / "llab" / "data"


def mul(a, b):
    return tuple(b[i] for i in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def conj(x, g):
    return mul(mul(inv(g), x), g)


def load_elements(name: str) -> frozenset:
    """All elements of a named built-in group, via sympy's closure."""
    spec = json.loads((DATA / f"{name}.json").read_text())
    degree = spec["degree"]
    gens = [Permutation(g) for g in spec["generators"]]
    G = PermutationGroup(gens)
    return frozenset(tuple(p(i) for i in range(degree)) for p in G.elements)


def close(seed, degree):
    """Subgroup closure of a set of permutation tuples."""
    ident = tuple(range(degree))
    got = {ident}
    frontier = [ident]
    gens = list(seed)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in got:
                    got.add(b)
                    new.append(b)
        frontier = new
    return frozenset(got)


def subgroups(elements) -> set[frozenset]:
    """Every subgroup, as a set of frozensets; plain join-lattice BFS."""
    degree = len(next(iter(elements)))
    ident = tuple(range(degree))
    trivial = frozenset([ident])
    found = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for g in elements:
            if g in H:
                continue
            K = close(set(H) | {g}, degree)
            if K not in found:
                found.add(K)
                queue.append(K)
    return found


def normalizer_set(elements, H):
    return frozenset(g for g in elements
                     if all(conj(x, g) in H for x in H))


def centralizer_set(elements, H):
    return frozenset(g for g in elements
                     if all(conj(x, g) == x for x in H))


def conjugates_in(G_elems, S_elems, P) -> set[frozenset]:
    """{P^g : g in G, P^g <= S}: the fusion-conjugates of P for F_S(G)."""
    out = set()
    for g in G_elems:
        img = frozenset(conj(x, g) for x in P)
        if img <= S_elems:
            out.add(img)
    return out


def is_fully_normalized(G_elems, S_elems, P) -> bool:
    mine = len(normalizer_set(S_elems, P))
    return all(len(normalizer_set(S_elems, Q)) <= mine
               for Q in conjugates_in(G_elems, S_elems, P))


def is_fully_centralized(G_elems, S_elems, P) -> bool:
    mine = len(centralizer_set(S_elems, P))
    return all(len(centralizer_set(S_elems, Q)) <= mine
               for Q in conjugates_in(G_elems, S_elems, P))


def is_centric(G_elems, S_elems, P) -> bool:
    return all(centralizer_set(S_elems, Q) <= Q
               for Q in conjugates_in(G_elems, S_elems, P))


def _coset_extension_ok(H_elems, T_elems, U, degree):
    """Is U normal in the fusion system of H on T (group-witnessed)?

    U must be setwise H-fixable along every maximal conjugation morphism:
    for each h there must be h' acting like h on D_h = T cap T^{h^-1} with
    U^{h'} = U and (D_h U)^{h'} <= T.
    """
    if normalizer_set(T_elems, U) != T_elems:
        return False
    for h in H_elems:
        hi = inv(h)
        D_h = frozenset(x for x in T_elems if conj(x, h) in T_elems)
        DU = close(set(D_h) | set(U), degree)
        cent = [c for c in H_elems if all(conj(x, c) == x for x in D_h)]
        ok = False
        for c in cent:
            hp = mul(c, h)
            if all(conj(u, hp) in U for u in U) and \
               all(conj(x, hp) in T_elems for x in DU):
                ok = True
                break
        if not ok:
            return False
    return True


def o_p_of_group_fusion(H_elems, T_elems, degree):
    """O_p of the fusion system of H on T: largest U <= T normal in it."""
    cands = sorted(subgroups(T_elems), key=lambda u: (-len(u), sorted(u)))
    for U in cands:
        if _coset_extension_ok(H_elems, T_elems, U, degree):
            return U
    raise AssertionError("trivial subgroup must qualify")


def is_radical(G_elems, S_elems, P) -> bool:
    """Some fully normalized conjugate Q has Q = O_p(N_F(Q))."""
    degree = len(next(iter(S_elems)))
    for Q in conjugates_in(G_elems, S_elems, P):
        if not is_fully_normalized(G_elems, S_elems, Q):
            continue
        NG = normalizer_set(G_elems, Q)
        NS = normalizer_set(S_elems, Q)
        if o_p_of_group_fusion(NG, NS, degree) == Q:
            return True
    return False


def is_quasicentric(G_elems, S_elems, P) -> bool:
    """Some fully centralized conjugate Q has all C_G(Q)-fusion on C_S(Q) inner."""
    for Q in conjugates_in(G_elems, S_elems, P):
        if not is_fully_centralized(G_elems, S_elems, Q):
            continue
        CG = centralizer_set(G_elems, Q)
        CS = centralizer_set(S_elems, Q)
        if _fusion_is_inner(CG, CS):
            return True
    return False


def _fusion_is_inner(H_elems, T_elems) -> bool:
    """Does every conjugation morphism of H on T come from T itself?"""
    for h in H_elems:
        D_h = frozenset(x for x in T_elems if conj(x, h) in T_elems)
        if not any(all(conj(x, t) == conj(x, h) for x in D_h)
                   for t in T_elems):
            return False
    return True


def is_subcentric(G_elems, S_elems, P) -> bool:
    """Some fully normalized conjugate Q has O_p(N_F(Q)) centric."""
    degree = len(next(iter(S_elems)))
    for Q in conjugates_in(G_elems, S_elems, P):
        if not is_fully_normalized(G_elems, S_elems, Q):
            continue
        NG = normalizer_set(G_elems, Q)
        NS = normalizer_set(S_elems, Q)
        core = o_p_of_group_fusion(NG, NS, degree)
        if is_centric(G_elems, S_elems, core):
            return True
    return False


def s_g(S_elems, g):
    return frozenset(x for x in S_elems if conj(x, g) in S_elems)


def locality_elements(G_elems, S_elems, delta: set[frozenset]):
    return frozenset(g for g in G_elems if s_g(S_elems, g) in delta)


def is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def sylow_like_llab(elements, p=2):
    """Replays the canonical Sylow p choice: grow through normalizers,
    always adjoining the lexicographically smallest eligible p-element."""
    degree = len(next(iter(elements)))
    n = len(elements)
    target = 1
    while n % p == 0:
        n //= p
        target *= p
    P = close([], degree)
    while len(P) < target:
        N = normalizer_set(elements, P)
        pick = min(g for g in N - P if is_p_power(perm_order(g), p))
        P = close(set(P) | {pick}, degree)
    return P


def perm_order(a):
    n = 1
    seen = [False] * len(a)
    for s in range(len(a)):
        if seen[s] or a[s] == s:
            continue
        length = 0
        i = s
        while not seen[i]:
            seen[i] = True
            length += 1
            i = a[i]
        n = math.lcm(n, length)
    return n


# ---------------------------------------------------------------------------

KNOWN_SUBGROUP_COUNTS = {
    "s3": 6, "d8": 10, "s4": 30, "a4": 10, "c6": 4, "a5": 59, "s5": 156,
}


@lru_cache(maxsize=None)
def classification_table(name: str, p: int = 2):
    """Flags for every subgroup of the canonical Sylow p-subgroup of G."""
    G = load_elements(name)
    S, rows = classify_elements(G, p)
    return G, S, rows


@lru_cache(maxsize=None)
def classify_elements(G: frozenset, p: int = 2):
    """The canonical Sylow p-subgroup S of a group given by its elements,
    and the flags of every subgroup of S."""
    S = sylow_like_llab(G, p)
    rows = {}
    for P in sorted(subgroups(S), key=lambda u: (-len(u), sorted(u))):
        rows[P] = {
            "order": len(P),
            "centric": is_centric(G, S, P),
            "radical": is_radical(G, S, P),
            "quasicentric": is_quasicentric(G, S, P),
            "subcentric": is_subcentric(G, S, P),
            "fully_normalized": is_fully_normalized(G, S, P),
            "fully_centralized": is_fully_centralized(G, S, P),
        }
    return S, rows


def describe(P):
    """Stable readable key for a subgroup: sorted nontrivial element tuples."""
    return tuple(sorted(x for x in P if x != tuple(sorted(x))))


def main():
    for name, want in KNOWN_SUBGROUP_COUNTS.items():
        got = len(subgroups(load_elements(name)))
        assert got == want, (name, got, want)
        print(f"subgroup count {name}: {got}")

    s4 = load_elements("s4")
    v4 = close([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
    assert normalizer_set(s4, v4) == s4
    assert centralizer_set(s4, v4) == v4
    print("N_S4(V4) = S4, C_S4(V4) = V4: ok")

    c6 = load_elements("c6")
    c3 = close([(2, 3, 4, 5, 0, 1)], 6)
    odd_normals = [H for H in subgroups(c6) if len(H) % 2 == 1 and len(H) > 1]
    assert odd_normals == [c3]
    print("O_2'(C6) = C3: ok")

    for name in ("s4", "s5"):
        G, S, rows = classification_table(name)
        print(f"\n=== {name}: Sylow2 = {sorted(S)}")
        for P, f in rows.items():
            print(f"  order {f['order']:>2} {describe(P)}: "
                  + " ".join(k for k in ("centric", "radical", "quasicentric",
                                         "subcentric", "fully_normalized")
                             if f[k]))
        fc = {P for P, f in rows.items() if f["centric"]}
        fs = {P for P, f in rows.items() if f["subcentric"]}
        print(f"  |F^c|={len(fc)} |F^s|={len(fs)}")

    # locality element counts for s5 at p = 2
    G, S, rows = classification_table("s5")
    fc = upward({P for P, f in rows.items() if f["centric"]}, S)
    fs = upward({P for P, f in rows.items() if f["subcentric"]}, S)
    Lc = locality_elements(G, S, fc)
    Ls = locality_elements(G, S, fs)
    a5 = load_elements("a5")
    print(f"\n|S5|F^c| = {len(Lc)}  |S5|F^s| = {len(Ls)}")
    print(f"|A5 meet L_c| = {len(Lc & a5)}  |A5 meet L_s| = {len(Ls & a5)}")
    trans_12 = (1, 0, 2, 3, 4)
    print(f"(1 2)-transposition in L_c: {trans_12 in Lc}, in L_s: {trans_12 in Ls}")
    print(f"S_(12) = {sorted(s_g(S, trans_12))}")


def upward(delta, S_elems):
    """Close a set of subgroups of S under overgroups in S."""
    subs = subgroups(S_elems)
    out = set()
    for P in delta:
        for Q in subs:
            if P <= Q:
                out.add(Q)
    return out


if __name__ == "__main__":
    main()
