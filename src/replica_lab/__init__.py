"""Numerical laboratory for the replica-symmetric analysis of the spiked Wigner model.

Layers, bottom up: finite-atom priors (`priors`), scalar-channel free
entropies by Gauss-Hermite quadrature (`channel`), the RS potential /
Franz-Parisi saddle and derived curves (`rs`), finite-size instances with
exact enumeration and disorder Monte Carlo (`finite`), interpolation-path
bounds (`interpolation`), the named check suite (`verify`), and the CLI.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelEvaluator,
    asymmetry_gap,
    make_evaluator,
    psi,
    psi_bar,
    psi_hat,
    psi_prime,
)
from .errors import (
    DomainError,
    EnumerationBudgetError,
    InvalidArgumentError,
    InvalidPriorError,
    NumericalError,
)
from .finite import (
    EnumerationResult,
    McEstimate,
    SpikedInstance,
    derive_seed,
    fp_potential,
    fp_profile,
    free_entropy_mc,
    kl_log_likelihood_ratio,
    log_partition_exact,
    metropolis_sampler,
    nishimori_check,
    sample_instance,
    sample_spike,
)
from .interpolation import (
    fp_upper_check,
    guerra_slope_check,
    phi_of_t,
)
from .priors import (
    Prior,
    make_prior,
    mean,
    parse_prior_spec,
    prior_from_json,
    prior_to_json,
    second_moment,
    standard_priors,
)
from .report import VerificationReport
from .rs import (
    PotentialResult,
    SETrace,
    compute_curve,
    critical_lambda,
    f_bar,
    f_bar_inner_min,
    f_hat,
    phi_rs,
    rs_potential,
    saddle,
    state_evolution,
)
from .verify import run_suite
