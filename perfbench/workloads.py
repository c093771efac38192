"""Benchmark workloads: remlab manifests generated from a workload seed.

Each workload is one manifest that stresses a different layer of
remlab.  ``WORKLOADS[name].build(seed)`` returns the manifest as a plain
dict, to be handed to ``remlab.manifest.from_dict``; the seed becomes the
manifest's ``master_seed``, so the same seed gives the same inputs and
the same artifacts.

Every manifest carries limit-law checks.  Their tolerances are computed
here from the known finite-``n`` behaviour of the statistic, with scipy
directly rather than through remlab, so a defect in remlab cannot move
its own bound.  Statistical checks are sized for a false-alarm rate of
about ``FALSE_ALARM`` per check and seed.  scipy is imported lazily, so
importing this module loads nothing that ``import remlab`` is timed
loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG2 = math.log(2.0)
FALSE_ALARM = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # per-layer metric -> the end-to-end metric it should move on this workload
    moves: dict
    n: int

    def build(self, seed: int, n: int | None = None) -> dict:
        return _BUILDERS[self.name](seed % (1 << 64), self.n if n is None else n)


def _tail(alpha: float, n: int, x: float) -> float:
    """P(E > x), x >= 0, for the environment with shape alpha at size n."""
    from scipy import special

    return 0.5 * special.gammaincc(1.0 / alpha, x**alpha / (alpha * n ** (alpha - 1.0)))


def _ks_bound(n1: int, n2: int) -> float:
    """Two-sample KS statistic exceeded with probability FALSE_ALARM under the null."""
    from scipy import special

    return float(special.kolmogi(FALSE_ALARM)) * math.sqrt((n1 + n2) / (n1 * n2))


def _curve_alpha1(seed: int, n: int) -> dict:
    # Below beta_c = 1 the mean of log Z / n sits log(1/(1-beta^2)) / n above
    # log 2 (the exact annealed correction); allow twice that.  With 8
    # replicas at n = 20 curve_shape failed at 1 seed in 120 (the beta = 2
    # Gumbel noise outgrew the log n / n peak at beta_c); 32 replicas at
    # n = 18 kept the off-window deviation below 0.65 of the peak.
    beta_hot = 0.5
    return {
        "experiment": "free_energy",
        "env": {"alpha": 1.0, "n": n},
        "betas": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        "replicas": 32,
        "master_seed": seed,
        "checks": [
            {"check": "curve_shape", "center_beta": 1.0, "window": 0.25},
            {"check": "mean_within", "beta": beta_hot,
             "tol": 2.0 * math.log(1.0 / (1.0 - beta_hot**2)) / n},
        ],
    }


def _rate_alpha15(seed: int, n: int) -> dict:
    alpha, replicas = 1.5, 2
    low, high = 0.3, 0.4
    q = _tail(alpha, n, low * n) - _tail(alpha, n, high * n)
    # The pooled estimate -log(hits / replicas) / n + log 2 converges to the
    # rate low**alpha / alpha from above; at finite n its mean is -log(q) / n.
    # Five Poisson standard deviations of the pooled hit count on top.
    finite_n = -math.log(q) / n
    spread = 5.0 / (n * math.sqrt(replicas * q * 2.0**n))
    # (1.5, 2) lies beyond the edge (alpha log 2)^(1/alpha) = 1.03; its exact
    # expected hit count over both replicas is 2e-5 at n = 18 (1.5e-3 at n = 10).
    return {
        "experiment": "rate_function",
        "env": {"alpha": alpha, "n": n},
        "replicas": replicas,
        "master_seed": seed,
        "intervals": [[low, high], [1.5, 2.0]],
        "checks": [
            {"check": "pooled_rate_in", "interval": [low, high],
             "low": low**alpha / alpha, "high": finite_n + spread},
            {"check": "zero_hits", "interval": [1.5, 2.0]},
        ],
    }


def _one_replica_gauss(seed: int, n: int) -> dict:
    alpha, beta_hot, beta_cold = 2.0, 0.5, 2.0
    beta_c = math.sqrt(2.0 * LOG2)
    # In the frozen phase log Z / n ~ -beta E_min / n.  The ground state sits
    # log(4 pi n log 2) / (2 beta_c) above -n beta_c, less G / beta_c with G
    # standard Gumbel, and one replica averages nothing out.  So log Z / n
    # - limit ~ (beta / beta_c) (G - log(4 pi n log 2) / 2) / n, and the check
    # fails high only if G > log(1 / FALSE_ALARM) (P(G > g) ~ exp(-g)); the
    # low side would need G < -4 or so, which has probability below 1e-20.
    ratio = beta_cold / beta_c
    bias = ratio * math.log(4.0 * math.pi * n * LOG2) / (2.0 * n)
    tol = ratio * math.log(1.0 / FALSE_ALARM) / n - bias
    return {
        "experiment": "free_energy",
        "env": {"alpha": alpha, "n": n},
        "betas": [beta_hot, beta_cold],
        "replicas": 1,
        "master_seed": seed,
        "checks": [
            {"check": "mean_within", "beta": beta_hot, "tol": 0.02},
            {"check": "mean_within", "beta": beta_cold, "tol": tol},
        ],
    }


def _pd_frozen(seed: int, n: int) -> dict:
    replicas, draws = 400, 200
    return {
        "experiment": "pd_compare",
        "env": {"alpha": 1.0, "n": n},
        "betas": [2.0],
        "replicas": replicas,
        "master_seed": seed,
        "top_m": 1024,
        "pd": {"m": 0.5, "epsilon_mass": 1e-4, "draws": draws, "truncation_b": 0.0,
               "stick_draws": draws, "stick_length": 200},
        "checks": [
            {"check": "ks_w1", "max_statistic": _ks_bound(replicas, draws)},
            {"check": "ks_sumsq", "max_statistic": _ks_bound(replicas, draws)},
            {"check": "stick_ks_w1", "max_statistic": _ks_bound(draws, draws)},
        ],
    }


_BUILDERS = {
    "curve-alpha1": _curve_alpha1,
    "rate-alpha1.5": _rate_alpha15,
    "one-replica-gauss": _one_replica_gauss,
    "pd-frozen": _pd_frozen,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curve-alpha1",
            "free_energy, alpha=1, 8 betas, 32 replicas: eight per-beta exp+bincount "
            "reductions per chunk outweigh energy generation",
            {
                "engine.reduce.ms_per_Mconf": "wall_s",
                "engine.energies_per_config": "wall_s",
                "environment.quantile.ms_per_Mconf": "wall_s",
            },
            n=18,
        ),
        Workload(
            "rate-alpha1.5",
            "rate_function, alpha=1.5, no betas: the gammaincinv quantile is nearly all "
            "the time and pass B regenerates every energy only to discard it",
            {
                "environment.quantile.ms_per_Mconf": "wall_s",
                "rng.uniforms_per_config": "configs_per_s",
                "engine.energies_per_config": "wall_s",
            },
            n=18,
        ),
        Workload(
            "one-replica-gauss",
            "free_energy, alpha=2, one replica: replica-level parallelism leaves a core "
            "idle, so only parallelism inside a replica can show here",
            {
                "experiments.parallel_speedup": "wall_s",
                "rng.uniform_block.ms_per_Mconf": "wall_s",
                "engine.energies_per_config": "wall_s",
            },
            n=22,
        ),
        Workload(
            "pd-frozen",
            "pd_compare, alpha=1, beta=2, 400 small replicas: fixed per-replica costs and "
            "the serial PD samplers after the pool set the time",
            {
                "pointprocess.sample_pd_poisson.ms_per_draw": "wall_s",
                "pointprocess.sample_pd_stick.ms_per_draw": "wall_s",
                "experiments.self_s": "wall_s",
                "stats.s": "wall_s",
            },
            n=12,
        ),
    )
}
