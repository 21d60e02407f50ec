"""Four-well microstructure energetics on the periodic unit square.

The package prices phase arrangements of a four-variant material by a
weighted sum of interfacial perimeter and relaxed elastic misfit, generates
the classical low-energy candidates (laminates, crossing twins, self-similar
branching) alongside adversarial ones, and extracts the twin profiles any
low-energy state must approximately follow.
"""

from . import energy, fields, microstructures, model, rigidity, spectral
from .energy import *  # noqa: F403
from .fields import *  # noqa: F403
from .microstructures import *  # noqa: F403
from .model import *  # noqa: F403
from .rigidity import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    name
    for module in (energy, fields, microstructures, model, rigidity, spectral)
    for name in module.__all__
)
