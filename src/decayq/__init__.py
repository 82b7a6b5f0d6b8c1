"""Solver, structural analyzer, and simulator for the single-server queue
with value-decaying jobs.  The package exports each module's ``__all__``."""

from .model import *
from .monotone import *
from .presets import *
from .sim import *
from .solver import *

__version__ = "0.1.0"
