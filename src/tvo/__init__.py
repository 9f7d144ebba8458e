"""Thermodynamic variational objectives over a geometric q-to-p path.

Evidence bounds built from Riemann sums of the tempered-path integrand, a
covariance gradient estimator that never touches the path's normalizing
constant, exactly solvable oracle models, and a desk-scale training harness.
"""

from .autodiff import (ParamVector, Tape, backward, finite_difference_gradient,
                       value_and_grad)
from .estimators import (GradientEstimate, WeightTable, build_weight_table,
                         covariance_gradient, exact_weight_table, expectation,
                         gradient_std_diagnostic, reinforce_baseline_gradient,
                         reinforce_gradient, reparam_gradient, score_blocks)
from .models import (ConjugateGaussian, GaussianVAE, LatentModel,
                     SigmoidBeliefNet, ToyBernoulli, load_checkpoint,
                     restore_params, save_checkpoint)
from .objectives import (ObjectiveSpec, elbo_estimate, eubo_estimate,
                         iwae_estimate, training_step, tvo_lower, tvo_upper)
from .oracles import (enumerate_states, gaussian_grid_reference, ti_identity_check,
                      variance_identity_check)
from .path import IntegrandCurve, PartitionSchedule, integrand_curve, make_schedule
from .trainer import AdamState, RunConfig, adam_step, load_mnist, sweep, train

__version__ = "0.1.0"
