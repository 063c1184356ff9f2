"""Privacy-preserving data valuation over Gaussian summaries.

Sellers publish differentially private (mean, covariance, count) summaries
of embedded data subsets; the buyer scores each seller by the closed-form
2-Wasserstein distance to its own summary and ranks them.

The public surface is each module's own ``__all__``, re-exported here.
"""

from . import encoder, errors, gaussian_geometry, privacy, protocol, scenario, stats, valuation
from .encoder import *
from .errors import *
from .gaussian_geometry import *
from .privacy import *
from .protocol import *
from .scenario import *
from .stats import *
from .valuation import *

__version__ = "0.1.0"

__all__ = [
    *encoder.__all__, *errors.__all__, *gaussian_geometry.__all__, *privacy.__all__,
    *protocol.__all__, *scenario.__all__, *stats.__all__, *valuation.__all__,
    "__version__",
]
