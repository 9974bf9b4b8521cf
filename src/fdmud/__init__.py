"""Frequency-domain multi-user detection for cyclic-prefix single-carrier massive MIMO.

Each module's ``__all__`` is the one list of its public names; the package
republishes them all.
"""

from . import channel, detect, frame, harness, numerics, precode
from .channel import *
from .detect import *
from .frame import *
from .harness import *
from .numerics import *
from .precode import *

__version__ = "0.1.0"

__all__ = [
    *channel.__all__,
    *detect.__all__,
    *frame.__all__,
    *harness.__all__,
    *numerics.__all__,
    *precode.__all__,
]
