"""Direction-of-arrival estimation with partially calibrated sparse subarrays.

The package is organized as a pipeline:

- :mod:`sparsedoa.geometry` — integer sensor layouts, difference coarrays,
  and multi-subarray composition;
- :mod:`sparsedoa.sigmodel` — narrowband snapshot simulation with
  per-subarray phase miscalibration;
- :mod:`sparsedoa.coarray` — covariance-to-coarray mapping, spatial
  smoothing, and subspace extraction;
- :mod:`sparsedoa.estimators` — MUSIC-style spectra and peak picking;
- :mod:`sparsedoa.harness` — Monte-Carlo sweeps and RMSE aggregation.
"""

from . import coarray, estimators, geometry, harness, sigmodel
from .coarray import *  # noqa: F403
from .errors import DegenerateCoarrayError, TooManySourcesError
from .estimators import *  # noqa: F403
from .geometry import *  # noqa: F403
from .harness import *  # noqa: F403
from .sigmodel import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["DegenerateCoarrayError", "TooManySourcesError", "__version__"]
__all__ += geometry.__all__
__all__ += sigmodel.__all__
__all__ += coarray.__all__
__all__ += estimators.__all__
__all__ += harness.__all__
