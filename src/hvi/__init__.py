"""Sandwich bounds and importance-weighted ELBOs for hierarchical variational
models: a minimal reverse-mode tape, reparameterized densities, the bound
estimators with their gradient machinery, exact enumeration oracles, and an
experiment CLI.
"""

from .bounds import (BoundConfig, Estimate, diwhvi_elbo, eval_variants,
                     expected_kl_tau_prior, iwhvi_elbo, jackknife_U, kl_lower_bound,
                     kl_upper_bound, lower_bound_L, omega_sample, sharot_coeff,
                     sivi_elbo, sivi_reused, upper_bound_U, upper_bound_U_joint)
from .dists import (DistributionSpec, UnsupportedKindError, bernoulli, exponential, gamma,
                    gamma_implicit_grad, log_prob, log_prob_value, normal, sample_reparam)
from .grads import GradEstimate, SnrReport, grad_autodiff, grad_iwhvi_dreg, measure_snr
from .models import (AuxiliaryInference, ExplicitPrior, Generative, HierarchicalModel,
                     HierarchicalPrior, MlpCond, UnsupportedModelError, conditional_tau,
                     flat_generative, load_params, log_joint, make_discrete_hvm,
                     make_discrete_tau, make_gamma_mlp_tau, make_laplace_scale_mixture,
                     make_mini_vae, make_snr_task, posterior_tau, prior_tau, sample_joint,
                     save_params)
from .optim import Adam
from .rng import RngStream
from .tape import DomainError, NodeId, OpcodeError, ParamStore, Tape

__version__ = "0.1.0"
