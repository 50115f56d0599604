"""Test-only carriers: product tables, whole groups, unchecked localities.

Tests build tables to feed deliberately corrupted or scrambled products to
the axiom checker and to isomorphism tests, view a finite group as a
partial group with every word in its domain, and build localities that
skip the construction checks, to show what those checks catch.
"""

from llab.errors import DomainError
from llab.locality import Locality
from llab.partial import PartialGroup


class GroupPartial(PartialGroup):
    """A finite group viewed as a partial group with D = all words."""

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

    def __repr__(self):
        return f"GroupPartial(order={self.group.order})"


class UncheckedLocality(Locality):
    """A Locality built without its construction checks."""

    def _validate(self):
        pass


class TablePartial(PartialGroup):
    """Explicit finite product table.

    `products` maps length-2 word tuples to results; D is the closure of
    those pairs plus whatever longer words fold through defined pairs, with
    membership decided by `domain` when given explicitly.
    """

    def __init__(self, elements, identity, inverses, products, domain=None):
        self.elements = tuple(elements)
        self.identity = identity
        self._inv = dict(inverses)
        self._products = dict(products)
        self._domain = None if domain is None else {tuple(w) for w in domain}
        super().__init__()

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
