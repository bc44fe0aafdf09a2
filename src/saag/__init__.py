"""Biased variance-reduced stochastic gradient methods with proximal
extensions, plus baselines, a stochastic Armijo line search, a benchmark
harness, and oracle-based verification of the estimator and rate claims."""

import importlib.util
import sys

from .data import (Batch, BatchSchedule, Dataset, ParseError, load_libsvm,
                   make_schedule, make_synthetic, parse_libsvm,
                   split_train_test)
from .estimators import (GradTable, SnapState, bind, make_table,
                         saag1_direction, saag2_direction, svrg_direction,
                         take_snapshot)
from .harness import (Trace, TracePoint, emit_csv, finalize_suboptimality,
                      read_csv, record_epoch, run_jobs)
from .line_search import SBASParams, backtrack, sbas
from .objective import (LOSSES, ObjectiveSpec, Regularizer, accuracy,
                        batch_grad, batch_ray, batch_smooth_value, full_grad,
                        loss_t, margins, objective_value, prox, scatter,
                        slope_t)
from .solvers import (SOLVERS, EpochState, NonFiniteDirection, ReferenceResult,
                      RunConfig, init_state, inner_step, reference_optimum,
                      run, run_epoch)

# saag.verify, the oracle checks, runs on first use: like every module it is
# in sys.modules after `import saag`, but only `saag verify` pays for it.
_spec = importlib.util.find_spec(__name__ + ".verify")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
verify = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify)

__version__ = "0.1.0"
