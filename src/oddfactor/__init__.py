"""Spectral thresholds, extremal constructions, and exact deciders for
odd [1,b]-factors in regular graphs.

Import each name from the module that defines it, as listed in that module's
``__all__``: ``from oddfactor.graphs import Graph``.
"""

__version__ = "0.1.0"
