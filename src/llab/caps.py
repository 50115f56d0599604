"""Enumeration caps: the one home of every limit an input can drive.

Defaults are sized for desk-scale inputs. LLAB_CAPS overrides them, e.g.

    LLAB_CAPS="group_order=20000,partial_normal=10000" llab verify ...

group_order       elements of a group closed from generators
subgroup_count    subgroups found below one subgroup
partial_normal    carrier size and lattice size of the partial-normal search
fusion_maps       morphisms in one closed fusion-system hom table
sylow_order       order of the p-subgroup a fusion system is built on
axiom_table       n**3 products in the full-domain axiom check
axiom_words       words of length <= max_len in the bounded axiom check
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputError


@dataclass(frozen=True)
class Caps:
    group_order: int = 10_000
    subgroup_count: int = 50_000
    partial_normal: int = 5_000
    fusion_maps: int = 1_000_000
    sylow_order: int = 64
    axiom_table: int = 2_000_000
    axiom_words: int = 2_000_000


_current: Caps | None = None


def _from_env() -> Caps:
    caps = Caps()
    raw = os.environ.get("LLAB_CAPS", "").strip()
    if not raw:
        return caps
    fields = set(caps.__dataclass_fields__)
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        key = key.strip()
        if not sep or key not in fields:
            raise InputError(f"LLAB_CAPS: unknown entry {chunk!r}")
        try:
            caps = replace(caps, **{key: int(value)})
        except ValueError:
            raise InputError(f"LLAB_CAPS: {key} wants an integer, got {value!r}")
    return caps


def current() -> Caps:
    global _current
    if _current is None:
        _current = _from_env()
    return _current


def override(caps: Caps | None) -> None:
    """Install caps explicitly (None reverts to the environment)."""
    global _current
    _current = caps
