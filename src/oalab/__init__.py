"""Numerical laboratory for operator algebras with contractive approximate identities."""

from . import algebra, calculus, cone, domar, examples, matcore, ocpmap, spectral, suites, support
from .matcore import *  # noqa: F401,F403
from .cone import *  # noqa: F401,F403
from .calculus import *  # noqa: F401,F403
from .support import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .algebra import *  # noqa: F401,F403
from .examples import *  # noqa: F401,F403
from .domar import *  # noqa: F401,F403
from .ocpmap import *  # noqa: F401,F403
from .suites import *  # noqa: F401,F403

__version__ = "0.1.0"

# The layer modules, bottom to top; the package exports exactly their names.
_LAYERS = (matcore, cone, calculus, support, spectral, algebra, examples, domar, ocpmap, suites)

__all__ = [name for layer in _LAYERS for name in layer.__all__] + ["__version__"]
