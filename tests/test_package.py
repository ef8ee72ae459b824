"""The package's import graph: the RS core loads alone, the finite-N stack on first touch."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import replica_lab

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

# Modules that `import replica_lab` and the RS commands of the CLI never load.
DEFERRED_MODULES = ("finite", "interpolation", "verify", "report", "svg")

# The finite-N stack's exported names, by defining module.
STACK = {
    "finite": [
        "EnumerationResult", "McEstimate", "SpikedInstance", "derive_seed", "fp_potential",
        "fp_profile", "free_entropy_mc", "kl_log_likelihood_ratio", "log_partition_exact",
        "metropolis_sampler", "nishimori_check", "sample_instance", "sample_spike",
    ],
    "interpolation": ["fp_upper_check", "guerra_slope_check", "phi_of_t"],
    "report": ["VerificationReport"],
    "verify": ["run_suite"],
}

# Every public name of the package, as an eager import of all its layers bound them.
PUBLIC = [
    "ChannelEvaluator", "DomainError", "EnumerationBudgetError", "EnumerationResult",
    "InvalidArgumentError", "InvalidPriorError", "McEstimate", "NumericalError",
    "PotentialResult", "Prior", "SETrace", "SpikedInstance", "VerificationReport",
    "asymmetry_gap", "channel", "compute_curve", "critical_lambda", "derive_seed", "errors",
    "f_bar", "f_bar_inner_min", "f_hat", "finite", "fp_potential", "fp_profile",
    "fp_upper_check", "free_entropy_mc", "guerra_slope_check", "interpolation",
    "kl_log_likelihood_ratio", "log_partition_exact", "make_evaluator", "make_prior", "mean",
    "metropolis_sampler", "nishimori_check", "parse_prior_spec", "phi_of_t", "phi_rs",
    "prior_from_json", "prior_to_json", "priors", "psi", "psi_bar", "psi_hat", "psi_prime",
    "report", "rs", "rs_potential", "run_suite", "saddle", "sample_instance", "sample_spike",
    "second_moment", "standard_priors", "state_evolution", "verify",
]


def _run(script: str, *args: str) -> str:
    out = subprocess.run([sys.executable, "-c", script, *args], env=ENV, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_rs_core_loads_alone(tmp_path):
    # the package, its CLI and the rs-curve, saddle and se commands load none
    # of the finite-N stack or svg; the commands that need them still run
    script = (
        "import sys\n"
        "import replica_lab, replica_lab.cli\n"
        f"deferred = ['replica_lab.' + m for m in {DEFERRED_MODULES!r}]\n"
        "def loaded():\n"
        "    return [m for m in deferred if m in sys.modules]\n"
        "assert not hasattr(replica_lab, 'no_such_name')\n"
        "assert 'run_suite' in dir(replica_lab) and 'finite' in dir(replica_lab)\n"
        "assert not loaded(), loaded()\n"
        "out = sys.argv[1]\n"
        "for command in ('rs-curve', 'saddle', 'se'):\n"
        "    assert replica_lab.cli.main([command, '--lambda', '1', '--out', out]) == 0\n"
        "assert not loaded(), loaded()\n"
        "for argv in (['finite-n', '--n', '4', '--disorder', '3'], ['fp', '--n', '4', '--disorder', '3'],\n"
        "             ['verify', '--n', '4', '--disorder', '3'], ['rs-curve', '--lambda', '1', '--plot']):\n"
        "    assert replica_lab.cli.main(argv + ['--out', out]) == 0, argv\n"
        "assert loaded() == deferred, loaded()\n"
    )
    _run(script, str(tmp_path / "out.csv"))
    assert (tmp_path / "out.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("touch", [name for names in STACK.values() for name in names] + list(STACK))
def test_first_touch_binds_the_eager_namespace(touch):
    # whichever name is touched first, the namespace then equals the eager
    # one object for object, and a star import binds every public name
    script = (
        "import json, sys\n"
        "import replica_lab\n"
        "touch, public, stack = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])\n"
        "assert 'replica_lab.verify' not in sys.modules\n"
        "getattr(replica_lab, touch)\n"
        "assert sorted(replica_lab.__all__) == public\n"
        "for module, names in stack.items():\n"
        "    mod = sys.modules['replica_lab.' + module]\n"
        "    assert vars(replica_lab)[module] is mod\n"
        "    for name in names:\n"
        "        assert vars(replica_lab)[name] is getattr(mod, name), name\n"
        "star = {}\n"
        "exec('from replica_lab import *', star)\n"
        "del star['__builtins__']\n"
        "assert sorted(star) == public\n"
        "assert all(star[name] is getattr(replica_lab, name) for name in public)\n"
        "assert set(public) <= set(dir(replica_lab))\n"
    )
    _run(script, touch, json.dumps(PUBLIC), json.dumps(STACK))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="'replica_lab' has no attribute 'no_such_name'"):
        replica_lab.no_such_name
    assert not hasattr(replica_lab, "no_such_name")
    assert sorted(replica_lab.__all__) == PUBLIC


def test_import_error_while_loading_the_stack_reaches_the_caller():
    # a failed import of the stack surfaces as itself, not as a missing attribute
    script = (
        "import sys\n"
        "import replica_lab\n"
        "sys.modules['replica_lab.interpolation'] = None\n"
        "for touch in ('finite', 'run_suite'):\n"
        "    try:\n"
        "        getattr(replica_lab, touch)\n"
        "    except AttributeError as e:\n"
        "        raise SystemExit(f'AttributeError: {e}')\n"
        "    except ImportError as e:\n"
        "        assert type(e) is ModuleNotFoundError and 'replica_lab.interpolation' in str(e), e\n"
        "    else:\n"
        "        raise SystemExit('no error')\n"
    )
    _run(script)
