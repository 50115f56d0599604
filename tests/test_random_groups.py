"""Random small permutation groups against the oracles and the growth references.

Groups are drawn as two permutations of degree 3 to 5 at p = 2.
Hypothesis is derandomized and bounded, so the draws are the same on every
run.  `classify` and the cr-closure locality's carrier must agree with
`tests/oracles.py`, which does not import llab; where that locality is
proper, its growth to F^s must keep the facts that `tests/test_expansion.py`
checks with the dropped guards.
"""

from dataclasses import asdict

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from llab.expansion import full_expand
from llab.fusion import fusion_from_group
from llab.locality import is_proper, locality_from_group, resolve_delta_spec
from llab.permgroup import group_from_generators
from test_expansion import reference_chain_checks, reference_step_checks


@st.composite
def small_groups(draw):
    degree = draw(st.integers(3, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
    return degree, tuple(tuple(g) for g in gens)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_groups())
def test_agrees_with_the_oracles_and_growth_keeps_its_facts(spec):
    degree, gens = spec
    elements = oracles.close(gens, degree)
    assume(len(elements) % 2 == 0)
    S_oracle, rows = oracles.classify_elements(elements)

    G = group_from_generators(degree, [list(g) for g in gens])
    F = fusion_from_group(G, 2)

    def key(P):
        return frozenset(G.elements[i] for i in P.members())

    assert key(F.S) == S_oracle
    flags = {key(P): asdict(F.classify(P)) for P in F.subs}
    assert flags == {P: {k: v for k, v in row.items() if k != "order"}
                     for P, row in rows.items()}

    L = locality_from_group(G, 2, resolve_delta_spec(F, "cr-closure"))
    cr = {P for P, row in rows.items() if row["centric"] and row["radical"]}
    want = oracles.locality_elements(elements, S_oracle, oracles.upward(cr, S_oracle))
    assert {G.elements[g] for g in L.elements} == want
    if not is_proper(L).ok:
        return
    fe = full_expand(L, resolve_delta_spec(F, "s"))
    for step in fe.steps:
        assert step.locality.fusion() is step.base.fusion()
        reference_step_checks(step)
    reference_chain_checks(L, fe.locality)
