"""Scaled Arndt compositions.

Compositions of n whose part pairs satisfy s*c_odd > t*c_even, their
bijection with compositions into congruence-restricted parts, and the
exact counting sequences both describe.
"""

from . import bijection, core, enumeration, sequence
from .bijection import *  # noqa: F403
from .core import *  # noqa: F403
from .enumeration import *  # noqa: F403
from .sequence import *  # noqa: F403

__version__ = "0.1.0"

# The public names are the ones each module lists in its own __all__.
__all__ = sorted(bijection.__all__ + core.__all__ + enumeration.__all__ + sequence.__all__)
