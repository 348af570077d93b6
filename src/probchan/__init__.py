"""Probability-vector representation of qubit states and channels.

The package namespace is the public names of the five library layers,
each layer's __all__ in layer order; the cli module is imported on its own.
"""

from . import channelcore, kinetics, matcore, probchannel, stateprob
from .matcore import *  # noqa: F403
from .stateprob import *  # noqa: F403
from .channelcore import *  # noqa: F403
from .probchannel import *  # noqa: F403
from .kinetics import *  # noqa: F403

__all__ = [*matcore.__all__, *stateprob.__all__, *channelcore.__all__, *probchannel.__all__, *kinetics.__all__]

__version__ = "0.1.0"
