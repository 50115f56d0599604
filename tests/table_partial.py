"""Test-only carriers: product tables, whole groups, unchecked localities.

Tests build tables to feed deliberately corrupted or scrambled products to
the axiom checker and to isomorphism tests, view a finite group as a
partial group with every word in its domain, and build localities that
skip the construction checks, to show what those checks catch.  The
generic word protocol these carriers share (domain rows, the word walker,
the prefix fold and conjugation) lives here, on `GroupPartial`; the fold
and the conjugate `conj` take any carrier, `Locality` included.
"""

from llab.errors import DomainError
from llab.locality import Locality
from llab.partial import PartialGroup


class GroupPartial(PartialGroup):
    """A finite group viewed as a partial group with D = all words.

    It is also the base of the test carriers: the word protocol below is
    written over `inv`, `in_domain` and `binary` alone, so a carrier that
    replaces those three (`TablePartial`) inherits the rest.  `Locality`,
    the one carrier of `llab`, provides every method itself.
    """

    full_domain = True

    def __init__(self, group):
        self.group = group
        self.elements = tuple(range(group.order))
        self.identity = 0
        super().__init__()

    def inv(self, x):
        return self.group.inv(x)

    def in_domain(self, word) -> bool:
        return all(x in self._index for x in word)

    def binary(self, x, y):
        return self.group.mult(x, y)

    def domain_row(self, x) -> frozenset:
        """The y with (x, y) in D, memoized; every pair sweep reads these."""
        row = self._domain_rows.get(x)
        if row is None:
            row = self._domain_rows[x] = frozenset(
                y for y in self.elements if self.in_domain((x, y)))
        return row

    # The walker state is the word itself, answered by `in_domain` and
    # `product`.

    def walk_start(self):
        return ()

    def walk_step(self, state, x):
        return state + (x,)

    def walk_in_domain(self, state) -> bool:
        return self.in_domain(state)

    def walk_row(self, state, successors=True):
        """A `walk_step` per letter, and the mask of the letters whose
        successor `walk_in_domain` accepts."""
        row = [self.walk_step(state, x) for x in self.elements]
        dom = sum(1 << i for i, st in enumerate(row) if self.walk_in_domain(st))
        return dom, row if successors else None

    def walk_product(self, state):
        return self.product(state)

    def product(self, word):
        return fold(self, word)

    def conjugates(self, x) -> list:
        """Every defined x**g, by the reference `conj` over the carrier."""
        return [z for g in self.elements if (z := conj(self, x, g)) is not None]

    def __repr__(self):
        return f"{type(self).__name__}(order={len(self.elements)})"


def conj(pg, x, g):
    """x**g = g**-1 * x * g, or None when that word is not in D, on any
    carrier.

    One domain test on the whole word; axiom (3) then lets the word be
    folded pair by pair.  The reference for `Locality.conjugates`, which
    decides the same word from S_g alone.
    """
    gi = pg.inv(g)
    if not pg.in_domain((gi, x, g)):
        return None
    return pg.binary(pg.binary(gi, x), g)


def fold(pg, word):
    """Left fold of the partial product over a domain word, on any carrier.

    Raises DomainError naming the first failing prefix when the word is
    not in D.  The fold is valid for domain words: axiom (3) lets any
    prefix be contracted to its product.
    """
    word = tuple(word)
    if not word:
        return pg.identity
    for k in range(1, len(word) + 1):
        if not pg.in_domain(word[:k]):
            raise DomainError(word, k)
    acc = word[0]
    for x in word[1:]:
        acc = pg.binary(acc, x)
    return acc


class UncheckedLocality(Locality):
    """A Locality built without its construction checks."""

    def _validate(self):
        pass


class TablePartial(GroupPartial):
    """Explicit finite product table.

    `products` maps length-2 word tuples to results; D is the closure of
    those pairs plus whatever longer words fold through defined pairs, with
    membership decided by `domain` when given explicitly.
    """

    full_domain = False

    def __init__(self, elements, identity, inverses, products, domain=None):
        self.elements = tuple(elements)
        self.identity = identity
        self._inv = dict(inverses)
        self._products = dict(products)
        self._domain = None if domain is None else {tuple(w) for w in domain}
        PartialGroup.__init__(self)

    def inv(self, x):
        return self._inv[x]

    def in_domain(self, word) -> bool:
        word = tuple(word)
        if any(x not in self._index for x in word):
            return False
        if len(word) <= 1:
            return True
        if self._domain is not None:
            return word in self._domain or len(word) > 2 and self._fold_ok(word)
        return self._fold_ok(word)

    def _fold_ok(self, word) -> bool:
        acc = word[0]
        for x in word[1:]:
            if (acc, x) not in self._products:
                return False
            acc = self._products[(acc, x)]
        return True

    def binary(self, x, y):
        try:
            return self._products[(x, y)]
        except KeyError:
            raise DomainError((x, y), 2)
