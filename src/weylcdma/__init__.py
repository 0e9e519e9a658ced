"""Weyl-class spreading sequences for asynchronous CDMA.

Sequence generation (Weyl, extended FZC, Gold, Van der Corput slots),
correlation analysis with the crosscorrelation bound, closed-form optimal
phase assignment with numeric KKT certification, analytic SNR, and a
deterministic Monte-Carlo BER simulator with a CSV-producing CLI.
"""

from weylcdma.sequences import *  # noqa: F401,F403 -- each module's __all__ lists its public names
from weylcdma.correlation import *  # noqa: F401,F403
from weylcdma.phase_opt import *  # noqa: F401,F403
from weylcdma.snr import *  # noqa: F401,F403
from weylcdma.sim import *  # noqa: F401,F403

__version__ = "0.1.0"
