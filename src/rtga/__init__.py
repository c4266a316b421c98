"""Robust total-least-squares adaptive filtering under noisy regressors.

A stochastic-gradient filter family built on a bounded robust cost over
the normalized error, with online censoring of uninformative samples,
historical data reuse, closed-form steady-state predictors, and a
Monte-Carlo experiment harness. Each name is imported from the module that
defines it (rtga.filters, rtga.censoring, rtga.reuse, rtga.theory,
rtga.runner, ...); the package root holds only __version__.
"""

__version__ = "0.1.0"
