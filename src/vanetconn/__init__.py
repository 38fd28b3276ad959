"""Connectivity of 1D free-flow vehicular networks under unit-disc and
Rayleigh-fading channels: closed forms, graph-ensemble simulation, CLI.

Each function lives in its module (``analytic``, ``channel``, ``graph``,
``montecarlo``, ``numerics``, ``scenario``); the package root exports the
modules and ``ScenarioParams``, the one object every path takes.
"""

from . import analytic, channel, graph, montecarlo, numerics, scenario
from .scenario import ScenarioParams

__version__ = "0.1.0"
