"""Workload definitions and the benchmark's input generation.

Every input is a pure function of the workload seed and is made with
numpy's own Generator, never with mcselect, so the program under test
receives only generated configs and CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

SIGMA2 = 1.0
MAX_ORDER = 6
TRUE_COEFFICIENTS = (0.1, 0.1, -0.3, 0.4)
SELECT_N_RANGE = (50, 50_000)
SELECT_COEF_HALFWIDTH = 0.5
SELECT_PANEL_N = (50, 200, 1000, 5000, 20_000, 50_000)
SEED_MOD = 2**63
SIZE_STRATA = 20
SELECT_MAX_CALLS = 6000
# The oracle's reference panel does not depend on --seed: oracle_err_nats
# then reads the same on every run of one program, and an estimator change
# shows up as an exact difference rather than as seed noise.
PANEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "experiment" (timed unit: one run_experiment + write_report
    job of `replications` per N) or "select" (timed unit: one in-process
    `mcselect select` call on a fresh CSV).  The oracle's reference panel
    holds panel_size datasets per N of panel_n; checked_calls is the number
    of leading select calls whose own estimates it also compares.
    """

    kind: str
    rules: tuple
    samples: int
    panel_size: int
    panel_n: tuple
    n_values: tuple = ()
    replications: int = 0
    jobs: int = 1
    n_range: tuple = SELECT_N_RANGE
    checked_calls: int = 0


WORKLOADS = {
    # ue's box rejection and ub-strat's per-stratum loop dominate: the
    # Monte-Carlo layers do almost all the work.
    "mc-all-rules": Workload(
        kind="experiment",
        rules=("aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"),
        samples=1000,
        panel_size=6,
        panel_n=(100,),
        n_values=(100,),
        replications=1,
        jobs=1,
    ),
    # the paper's P(correct)-vs-N grid with cheap rules: per-replication
    # fixed costs (fit, regions, ub) and the process pool dominate.
    "prob-correct-sweep": Workload(
        kind="experiment",
        rules=("aic", "bic", "ub"),
        samples=1000,
        panel_size=20,
        panel_n=(20, 50, 100, 200, 500, 1000),
        n_values=(20, 50, 100, 200, 500, 1000),
        replications=8,
        jobs=2,
    ),
    # one dataset per call and a new N every call: nothing to amortise,
    # and large N exposes the O(N) CSV and design-matrix work.
    "select-one-shot": Workload(
        kind="select",
        rules=("aic", "bic", "ueg", "ge", "ub"),
        samples=1000,
        panel_size=4,
        panel_n=SELECT_PANEL_N,
        checked_calls=12,
    ),
}

# self-test sizes: the same code paths at a fraction of the cost
_TINY = {
    "mc-all-rules": dict(samples=100, panel_size=1),
    "prob-correct-sweep": dict(
        samples=100, panel_size=1, panel_n=(20, 50, 100), n_values=(20, 50, 100),
        replications=2,
    ),
    "select-one-shot": dict(
        samples=100, panel_size=1, panel_n=(50, 2000), n_range=(50, 2000), checked_calls=4
    ),
}


def get(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **_TINY[name]) if tiny else wl


def mix(seed: int, *keys: int) -> int:
    """A config seed in [0, 2^63) derived from the workload seed and keys."""
    entropy = [seed % SEED_MOD, *keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0] % SEED_MOD)


def grid(n_points: int) -> np.ndarray:
    """The package's fixed input grid: n equally spaced points on [-5, 5]."""
    return -5.0 + 10.0 * np.arange(n_points) / (n_points - 1)


def experiment_config(wl: Workload, seed: int) -> dict:
    return {
        "experiment": "fixed",
        "sigma2": SIGMA2,
        "max_order": MAX_ORDER,
        "rules": list(wl.rules),
        "samples": wl.samples,
        "n_values": list(wl.n_values),
        "replications": wl.replications,
        "true_order": len(TRUE_COEFFICIENTS),
        "true_coefficients": list(TRUE_COEFFICIENTS),
        "seed": seed,
    }


def select_config(wl: Workload, seed: int) -> dict:
    return {
        "experiment": "select",
        "sigma2": SIGMA2,
        "max_order": MAX_ORDER,
        "rules": list(wl.rules),
        "samples": wl.samples,
        "seed": seed,
    }


def job_seed(seed: int, job: int) -> int:
    """Config seed of experiment job `job`; job -1 is the untimed warm-up."""
    return mix(seed, 1, job + 1)


def _truth_dataset(rng, n_points: int) -> np.ndarray:
    phi = np.vander(grid(n_points), len(TRUE_COEFFICIENTS), increasing=True)
    return phi @ np.asarray(TRUE_COEFFICIENTS) + np.sqrt(SIGMA2) * rng.standard_normal(n_points)


def _random_order_dataset(rng, n_points: int) -> np.ndarray:
    """A random-order polynomial plus noise: the order is uniform on
    1..MAX_ORDER and the coefficients uniform on [-0.5, 0.5], as in the
    package's random experiment."""
    order = int(rng.integers(1, MAX_ORDER + 1))
    coeffs = rng.uniform(-SELECT_COEF_HALFWIDTH, SELECT_COEF_HALFWIDTH, order)
    phi = np.vander(grid(n_points), order, increasing=True)
    return phi @ coeffs + np.sqrt(SIGMA2) * rng.standard_normal(n_points)


def panel(wl: Workload) -> list:
    """The oracle's reference panel: (label, y, config seed) per dataset.

    An estimate's error depends on its stream and the design, not on y,
    so every dataset gets its own stream.
    """
    make = _truth_dataset if wl.kind == "experiment" else _random_order_dataset
    out = []
    for cell, n in enumerate(wl.panel_n):
        for k in range(wl.panel_size):
            rng = np.random.default_rng([PANEL_SEED, 2, cell, k])
            out.append((f"panel N={n} #{k}", make(rng, n), mix(PANEL_SEED, 6, cell, k)))
    return out


def select_sizes(wl: Workload, seed: int) -> np.ndarray:
    """Distinct N for successive select calls, log-uniform over n_range.

    Stratified so that every run of SIZE_STRATA consecutive calls holds one
    N from each equal slice of the log range: the mix of small and large N,
    and with it the run's cost, is then nearly the same for every seed.  No
    N repeats; a slice whose integers are used up gives the next unused N
    above it.
    """
    lo, hi = wl.n_range
    count = min(SELECT_MAX_CALLS, hi - lo + 1)
    edges = np.exp(np.linspace(np.log(lo), np.log(hi + 1), SIZE_STRATA + 1))
    rng = np.random.default_rng([seed % SEED_MOD, 3])
    used: set = set()
    out = []
    while len(out) < count:
        block = []
        for k in range(min(SIZE_STRATA, count - len(out))):
            n = None
            for _ in range(16):
                cand = int(np.exp(rng.uniform(np.log(edges[k]), np.log(edges[k + 1]))))
                if lo <= cand <= hi and cand not in used:
                    n = cand
                    break
            if n is None:
                n = next((c for c in range(int(edges[k]), hi + 1) if c not in used), None)
            if n is None:  # the slices above are used up too: take any unused N
                n = next(c for c in range(lo, hi + 1) if c not in used)
            used.add(n)
            block.append(n)
        rng.shuffle(block)
        out.extend(block)
    return np.asarray(out[:count])


def select_dataset(seed: int, call: int, n_points: int) -> np.ndarray:
    """Responses for select call `call`; call -1 is the untimed warm-up."""
    return _random_order_dataset(np.random.default_rng([seed % SEED_MOD, 4, call + 1]), n_points)


def write_csv(path, y: np.ndarray) -> None:
    """t,y rows with t = 1..N, every digit of y kept."""
    body = "\n".join(map("%d,%.17g".__mod__, enumerate(y.tolist(), start=1)))
    with open(path, "w") as fh:
        fh.write("t,y\n" + body + "\n")
