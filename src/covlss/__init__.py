"""Trace statistics of high-dimensional sample covariance matrices.

The library builds population covariance models whose leading eigenvalues
may grow with the sample size, simulates the trace statistics
T_k = tr(B^k) of the sample covariance matrix B, evaluates their exact and
leading-order means and covariances in closed form, whitens (T_1, T_2)
into a chi-square(2) test statistic, and verifies the underlying
quadratic-form moment identities by exhaustive enumeration over
finite-support innovations.
"""

__version__ = "0.2.0"

VERSION_STRING = f"covlss-{__version__}"
