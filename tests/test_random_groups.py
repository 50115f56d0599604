"""Random small permutation groups against the oracles and the growth references.

Groups are drawn as two permutations of degree 3 to 5, or of degree 6
preserving the blocks {0, 1, 2} and {3, 4, 5} (inside S3 wr C2, order 72,
which keeps the oracle fast); each group is checked at p = 2 and at p = 3
where p divides its order.  Hypothesis is derandomized and
bounded, so the draws are the same on every run.  `classify` and the
cr-closure locality's carrier must agree with `tests/oracles.py`, which does
not import llab.  Where that carrier is proper, its growth to F^s must keep
the facts that `tests/test_expansion.py` checks with the dropped guards.  The
dropped guards of `tests/test_derived_facts.py` run on the carrier and on the
growth.  Dropping a member whose F-class has more than one member from the
cr-closure or from F^s leaves a family that is not F-closed, which
`locality_from_group` must refuse.
"""

from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from llab.errors import InputError
from llab.expansion import full_expand
from llab.fusion import fusion_from_group
from llab.locality import is_proper, locality_from_group, resolve_delta_spec
from llab.permgroup import group_from_generators
from test_derived_facts import check_carrier, check_growth
from test_expansion import reference_chain_checks, reference_step_checks

MAX_EXAMPLES = 15


@st.composite
def block_permutations(draw):
    """A permutation of {0, ..., 5} that preserves the blocks {0, 1, 2} and
    {3, 4, 5}, possibly swapping them."""
    a = draw(st.permutations(range(3)))
    b = [3 + x for x in draw(st.permutations(range(3)))]
    return tuple(b + a if draw(st.booleans()) else a + b)


@st.composite
def small_groups(draw):
    degree = draw(st.integers(3, 6))
    if degree == 6:
        gens = [draw(block_permutations()) for _ in range(2)]
    else:
        gens = [tuple(draw(st.permutations(range(degree)))) for _ in range(2)]
    return degree, tuple(gens)


@settings(max_examples=MAX_EXAMPLES, derandomize=True, deadline=None)
@given(small_groups())
def test_agrees_with_the_oracles_and_growth_keeps_its_facts(spec):
    degree, gens = spec
    elements = oracles.close(gens, degree)
    primes = [p for p in (2, 3) if len(elements) % p == 0]
    assume(primes)
    G = group_from_generators(degree, [list(g) for g in gens])
    for p in primes:
        check_group(G, elements, p)


def check_group(G, elements, p):
    S_oracle, rows = oracles.classify_elements(elements, p)
    F = fusion_from_group(G, p)

    def key(P):
        return frozenset(G.elements[i] for i in P.members())

    assert key(F.S) == S_oracle
    flags = {key(P): asdict(F.classify(P)) for P in F.subs}
    assert flags == {P: {k: v for k, v in row.items() if k != "order"}
                     for P, row in rows.items()}

    delta = resolve_delta_spec(F, "cr-closure")
    L = locality_from_group(G, p, delta)
    cr = {P for P, row in rows.items() if row["centric"] and row["radical"]}
    want = oracles.locality_elements(elements, S_oracle, oracles.upward(cr, S_oracle))
    assert {G.elements[g] for g in L.elements} == want
    check_carrier(L)
    # Dropping a member P whose F-class is larger, with the members below P
    # to keep overgroup closure, leaves P's other conjugates in: refused.
    # No cr-closure of the drawn groups has such a member; F^s has 29.
    for family in (delta, resolve_delta_spec(F, "s")):
        for P in family:
            if len(F.conjugates(P)) > 1:
                with pytest.raises(InputError, match="not invariant under the fusion"):
                    locality_from_group(G, p, [Q for Q in family if not Q.le(P)])
    if not is_proper(L).ok:
        return
    fe = full_expand(L, resolve_delta_spec(F, "s"))
    for step in fe.steps:
        assert step.locality.fusion() is step.base.fusion()
        reference_step_checks(step)
    reference_chain_checks(L, fe.locality)
    check_growth(L, fe.steps, fe.locality)
    check_carrier(fe.locality)
