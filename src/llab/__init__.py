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
    sylow_p,
    p_core,
    is_characteristic_p,
)

__version__ = "0.1.0"
