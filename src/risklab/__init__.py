"""Numerical laboratory for concentration effects in risk-sharing economies.

The package is organized bottom-up: the incomplete gamma and beta
functions the closed forms need, in numpy and ``math`` (``special``),
convex geometry primitives, volumes and cap fractions (``geometry``),
seeded perturbation samplers and Monte Carlo estimates (``sampling``),
closed-form tail bounds as plain
floats (``bounds``), preference/belief machinery (``preferences``),
exchange-economy solvers (``economy``), and the reproducible experiment
runners behind the ``risklab`` CLI (``experiments``).  The modules are the
API: every name has its one home there, and the package itself holds only
``__version__``.
"""

from ._version import __version__
