"""Desk-scale laboratory for long-tailed classification methods."""

from .distribution import (ClassDistribution, GroupSplit, compute_distribution,
                           default_boundaries, distribution_from_counts, group_split,
                           pareto_targets)
from .harness import (ConfigError, DatasetConfig, ExperimentConfig, ExperimentError,
                      ParetoSpec, SynthSpec, build_dataset, parse_config,
                      run_experiment, run_sweep, sweep_csv)
from .losses import (LOSS_KINDS, LossContext, LossPlan, LossSpec, batch_loss_and_grad,
                     cb_weights, draw_noise, gcl_amplitudes, label_smoothing_eps, ldam_margins,
                     loss_grad, loss_plan, loss_value, loss_value_and_grad, posthoc_adjust)
from .manifest import (Manifest, ManifestFormatError, label_cardinality, load_manifest,
                       save_manifest, subsample_longtail, synth_gaussian)
from .metrics import (EpochRecord, GapStats, GroupReport, RunHistory, checkpoint_gaps,
                      average_precision_per_label, gaps_from_series, group_report,
                      group_report_from_values, mean_average_precision)
from .model import (ModelState, NcmClassifier, decision_scores, forward, init_model,
                    load_checkpoint, save_checkpoint, tau_normalize, weight_norms)
from .optim import Optimizer, OptimizerSpec, global_grad_norm, sam_step
from .samplers import BatchSampler, MixedBatch, MixupSpec, SamplerSpec, mixup_batch
from .training import (Stage2Spec, TrainConfig, TrainingDivergedError, apply_stage2,
                       evaluate_split, stage2_cosine_retrain, stage2_crt,
                       stage2_disalign, stage2_lws, stage2_ncm, train_stage1)

__version__ = "0.1.0"
