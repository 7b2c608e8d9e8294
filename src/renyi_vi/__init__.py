"""Mass-covering variational inference over tractable families.

Approximates a Bayesian posterior by the family member minimizing either
the order-alpha Renyi divergence from the posterior (alpha > 1, which
upper-bounds the evidence and covers the posterior's spread), the forward
KL (idealized expectation propagation), or the reverse KL (classical VB).
Ships exact conjugate posteriors, good-sequence constructions with
numerical audits, and an experiment harness that checks the asymptotic
theory at desk scale.
"""

from .distributions import (
    Density,
    dominates,
    interval_mass,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
    make_mixture,
    make_spike,
    make_uniform,
)
from .divergence import (
    DivergenceEstimate,
    MCUpperBound,
    holder_lower_bound,
    kl_forward,
    kl_reverse,
    mc_renyi_upper_bound,
    renyi,
    renyi_gauss_closed,
    renyi_quadrature,
)
from .goodseq import (
    GoodSequenceAudit,
    GoodSequenceSpec,
    alpha_factor,
    audit,
    build_good_sequence,
    cited_ratio_bound,
)
from .models import (
    BayesModel,
    exponential_model,
    gaussian_mean_model,
    load_data_csv,
    mvn_mean_model,
)
from .numerics import (
    QuadratureResult,
    QuadratureSpec,
    integrate,
    integrate_2d,
    log_sum_exp,
)
from .varfit import (
    DominanceError,
    FitResult,
    VariationalFamily,
    fit,
    gamma_family,
    gaussian_family,
    isotropic_gaussian_family,
    laplace_family,
    logistic_family,
)

__version__ = "0.1.0"
