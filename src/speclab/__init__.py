"""Speculative decoding laboratory.

Draft-then-verify decoding with pluggable draft-length policies (constant,
adaptive heuristic, entropy-based stopping), acceptance-rate lower bounds,
and a desk-scale experiment harness over synthetic autoregressive models.
"""

__version__ = "0.1.0"

from .dist import (Distribution, Rng, argmax, cross_entropy, entropy,
                   kl_divergence, make_rng, normalize, residual, sample, tvd)
from .models import (BOS, AutoregressiveModel, TabularModel, load_corpus,
                     random_tabular, segmented_chain_model, tabular_from_spec,
                     tabular_to_spec, temper, train_ngram)
from .engine import (DecodeMode, DecodeResult, RoundRecord,
                     autoregressive_decode, correct_greedy, correct_sampling,
                     speculative_decode, verify_greedy, verify_sampling)
from .policies import (DEFAULT_CAP, DEFAULT_H, ConstantPolicy, HeuristicPolicy,
                       LengthPolicy, SvipConfig, SvipPolicy,
                       threshold_from_bound)
from .bounds import (BoundReport, ConvergenceError, GammaFit, acceptance_rate,
                     approx_bound, bh_bound, bound_report, fit_gamma_ratio,
                     gamma_validity_prob, gaussian_validity_prob,
                     lower_incomplete_gamma, pinsker_bound,
                     regularized_lower_incomplete_gamma, validity_condition)
from .harness import (ROUND_CSV_FIELDS, CostModel, EquivalenceResult,
                      ExperimentConfig, ExperimentReport, entropy_stats,
                      equivalence_test, estimated_speedup,
                      exact_sequence_probs, kl_trace, oracle_draft_length,
                      oracle_length_stats, round_csv_columns, run_experiment,
                      sorted_logprob_profile)
