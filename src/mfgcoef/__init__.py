"""Coefficient recovery for a two-population mean field games system.

The package generates synthetic observation data by solving the density
equation forward in time, perturbs it with multiplicative noise, and
recovers the spatially varying interaction coefficient by minimizing a
Carleman-weighted least-squares functional with projected gradient descent.
"""

__version__ = "0.1.0"
