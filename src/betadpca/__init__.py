"""Distributed PCA by matrix beta-mean aggregation.

Workers send truncated eigendecompositions of their local covariances; the
coordinator combines them through the matrix beta-mean in a single
communication round.  The package also ships the matching beta-divergence
family, a perturbation-stability analyzer, cross-validated beta selection,
a simulated cluster, and an experiment driver.
"""

from .aggregation import AggregateResult, BetaConfig, SummarySpan, beta_aggregate, beta_mean, fan_aggregate
from .cluster import (CvSelect, FixedBeta, JobSpec, LocalSummaryMsg, coordinator_round,
                      decode_summary, encode_summary, listen, resolve_beta, run_local, run_sockets,
                      send_summary, serve, worker_round)
from .divergence import MinimizerReport, divergence, generating_value, verify_minimizer
from .errors import (ConvergenceError, CorruptMessage, DomainError, InvalidInput, IoError,
                     NotPSD, ParseError, PrecisionWarning, PreconditionError, TieWarning)
from .experiment import CSV_HEADER, METHODS, ExperimentResult, ExperimentSpec, run_and_write, run_experiment
from .linalg import EigenSystem, eig_sym, symmetrize
from .local_pca import (DataShard, TruncatedEig, local_summary, read_shard, truncate_summary,
                        truncated_eig, write_shard)
from .perturbation import PerturbationScenario, ToleranceReport, tolerance
from .selection import DEFAULT_CANDIDATES, CvPlan, CvResult, make_folds, select_beta
from .simgen import (DISTRIBUTIONS, GAUSSIAN, STUDENT_T3, PopulationModel, make_population,
                     rho_curve, rho_similarity, sample_data, signal_eigenvalues, split_shards)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult", "BetaConfig", "SummarySpan", "beta_aggregate", "beta_mean", "fan_aggregate",
    "CvSelect", "FixedBeta", "JobSpec", "LocalSummaryMsg", "coordinator_round",
    "decode_summary", "encode_summary", "listen", "resolve_beta", "run_local", "run_sockets",
    "send_summary", "serve", "worker_round",
    "MinimizerReport", "divergence", "generating_value", "verify_minimizer",
    "ConvergenceError", "CorruptMessage", "DomainError", "InvalidInput", "IoError",
    "NotPSD", "ParseError", "PrecisionWarning", "PreconditionError", "TieWarning",
    "CSV_HEADER", "METHODS", "ExperimentResult", "ExperimentSpec", "run_and_write", "run_experiment",
    "EigenSystem", "eig_sym", "symmetrize",
    "DataShard", "TruncatedEig", "local_summary", "read_shard", "truncate_summary",
    "truncated_eig", "write_shard",
    "PerturbationScenario", "ToleranceReport", "tolerance",
    "DEFAULT_CANDIDATES", "CvPlan", "CvResult", "make_folds", "select_beta",
    "DISTRIBUTIONS", "GAUSSIAN", "STUDENT_T3", "PopulationModel", "make_population",
    "rho_curve", "rho_similarity", "sample_data", "signal_eigenvalues", "split_shards",
]
