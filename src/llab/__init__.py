"""llab: finite localities and fusion systems at desk scale."""

from .errors import (
    LlabError,
    InputError,
    CapExceeded,
    PropertyViolation,
    DomainError,
)
from .permgroup import (
    FiniteGroup,
    Subgroup,
    group_from_generators,
    subgroups_below,
    normal_subgroups,
    sylow_p,
    p_core,
    p_prime_core,
    is_characteristic_p,
)

__version__ = "0.1.0"
