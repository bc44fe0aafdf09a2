"""Biased variance-reduced stochastic gradient methods with proximal
extensions, plus baselines, a stochastic Armijo line search, a benchmark
harness, and oracle-based verification of the estimator and rate claims."""

from .data import (BatchSchedule, Dataset, ParseError, dump_libsvm,
                   load_libsvm, make_schedule, make_synthetic, parse_libsvm,
                   split_train_test)
from .estimators import (GradTable, SnapState, estimator_mean_bruteforce,
                         make_table, saag1_direction, saag2_direction,
                         sgd_direction, svrg_direction, take_snapshot)
from .harness import (Trace, TracePoint, emit_csv, finalize_suboptimality,
                      read_csv, record_epoch)
from .line_search import SBASParams, backtrack, sbas
from .objective import (LOSSES, ObjectiveSpec, ProblemConstants, Regularizer,
                        accuracy, batch_grad, batch_ray, batch_smooth_value,
                        estimate_constants, full_grad, loss, margins,
                        objective_value, prox, scatter, slope)
from .solvers import (SOLVERS, EpochState, NonFiniteDirection, ReferenceResult,
                      RunConfig, init_state, inner_step, reference_optimum,
                      run, run_epoch)
from .verify import (RateParams, RateReport, RegimeError, VarianceBoundReport,
                     alpha_b, best_beta, bias_identity_gap, run_suites,
                     theoretical_rate, unbiasedness_gap, variance_bound_check)

__version__ = "0.1.0"
