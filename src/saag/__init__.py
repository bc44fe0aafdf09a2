"""Biased variance-reduced stochastic gradient methods with proximal
extensions, plus baselines, a stochastic Armijo line search, a benchmark
harness, and oracle-based verification of the estimator and rate claims."""

import importlib.util as _util
import sys as _sys

from . import data, estimators, harness, line_search, objective, solvers
# bench/worker.py and bench/test_selftest.py read their CSVs through
# saag.read_csv, so the package keeps that one binding
from .harness import read_csv

# saag.verify, the oracle checks, runs on first use: like every module it is
# in sys.modules after `import saag`, but only `saag verify` pays for it.
_spec = _util.find_spec(__name__ + ".verify")
_spec.loader = _util.LazyLoader(_spec.loader)
verify = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
_spec.loader.exec_module(verify)

__version__ = "0.1.0"
