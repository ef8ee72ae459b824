"""Numerical laboratory for the replica-symmetric analysis of the spiked Wigner model.

Layers, bottom up: finite-atom priors (`priors`), scalar-channel free
entropies by Gauss-Hermite quadrature (`channel`), the RS potential /
Franz-Parisi saddle and derived curves (`rs`), finite-size instances with
exact enumeration and disorder Monte Carlo (`finite`), interpolation-path
bounds (`interpolation`), the named check suite (`verify`), and the CLI.

`import replica_lab` loads only the RS core: `errors`, `priors`, `channel`
and `rs`, which are all that phi_RS, the saddle and state evolution call.
The finite-N stack (`finite`, `interpolation`, `report`, `verify`) loads
on the first touch of any of its names or modules here (PEP 562), and
from then on the namespace holds every one of them.
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

# The finite-N stack's exported names, by the module that defines them.
_FINITE_STACK = {
    "finite": (
        "EnumerationResult",
        "McEstimate",
        "SpikedInstance",
        "derive_seed",
        "fp_potential",
        "fp_profile",
        "free_entropy_mc",
        "kl_log_likelihood_ratio",
        "log_partition_exact",
        "metropolis_sampler",
        "nishimori_check",
        "sample_instance",
        "sample_spike",
    ),
    "interpolation": ("fp_upper_check", "guerra_slope_check", "phi_of_t"),
    "report": ("VerificationReport",),
    "verify": ("run_suite",),
}
_DEFERRED = frozenset(_FINITE_STACK).union(*_FINITE_STACK.values())

# Every public name, the core's submodules (bound by the imports above) among them.
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _DEFERRED)


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    importlib.import_module(".verify", __name__)  # loads finite, interpolation and report too
    namespace = globals()
    for module, names in _FINITE_STACK.items():
        for exported in names:
            namespace[exported] = getattr(namespace[module], exported)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | _DEFERRED)
