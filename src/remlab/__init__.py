"""remlab: exhaustive random energy model simulation and verification.

Simulates the random energy model with exponential-type site
distributions (density proportional to exp(-|x|**alpha / (alpha *
n**(alpha-1)))), streams over all 2**n configurations, and checks the
output against the exact limit laws: free energy and phase transition,
large deviations of the energy per site, Gibbs weight spectra against
Poisson-Dirichlet laws, and Poisson convergence of extreme energies.
"""

__version__ = "0.1.0"

from remlab.engine import (
    ReplicaResult,
    ReplicaSpec,
    energy_block,
    free_energy,
    rate_estimate,
    run_replica,
)
from remlab.environment import Environment
from remlab.experiments import CheckResult, RunOutcome, run_experiment
from remlab.manifest import ExperimentManifest, ManifestError, PDBlock
from remlab.pointprocess import (
    WeightSequence,
    sample_pd_poisson,
    sample_pd_stick,
)
from remlab.stats import (
    TestReport,
    chi_square_gof,
    ks_one_sample,
    ks_two_sample,
)
from remlab.theory import (
    LOG2,
    critical_beta,
    free_energy_limit,
    poisson_count_pmf,
    rate_function,
    shift_constant,
)

__all__ = [
    "CheckResult",
    "Environment",
    "ExperimentManifest",
    "LOG2",
    "ManifestError",
    "PDBlock",
    "ReplicaResult",
    "ReplicaSpec",
    "RunOutcome",
    "TestReport",
    "WeightSequence",
    "chi_square_gof",
    "critical_beta",
    "energy_block",
    "free_energy",
    "free_energy_limit",
    "ks_one_sample",
    "ks_two_sample",
    "poisson_count_pmf",
    "rate_estimate",
    "rate_function",
    "run_experiment",
    "run_replica",
    "sample_pd_poisson",
    "sample_pd_stick",
    "shift_constant",
    "__version__",
]
