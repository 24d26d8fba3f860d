"""Sample-size planning for metric estimation over a finite population.

The workflow: take a pre-sample of the metric, compute its standard
deviation, and ask how many of the population's samples must be
collected so the estimate's standard error stays within a chosen bound
at a chosen confidence.  The finite-population correction keeps the
answer below the population size.

Two deliberate conventions, both load-bearing for reproducing published
figures, are worth calling out:

  * presample_std divides by N, not N-1.  Do not "fix" it to the
    sample estimator; the regression tests pin the N divisor.
  * the 95% Z value is 1.959, the truncated table figure, not 1.960.
"""

import math
import random
from dataclasses import dataclass

Z_TABLE = {0.90: 1.645, 0.95: 1.959, 0.99: 2.576}


@dataclass(frozen=True)
class SampleSizeInputs:
    """Inputs to the minimum-sample-size formula.

    s is the pre-sample standard deviation, e the acceptable standard
    error (same units as the metric), n_t the population size.
    """

    s: float
    z: float
    e: float
    n_t: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("s must be non-negative")
        if self.z <= 0:
            raise ValueError("z must be positive")
        if self.e <= 0:
            raise ValueError("e must be positive")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if not math.isfinite(self.z * self.z * self.s * self.s):  # min_sample_size's numerator
            raise ValueError(f"s={self.s:g} is too large: z^2 s^2 overflows a double")
        if self.e * self.e == 0:  # else s=0 makes min_sample_size 0 / 0
            raise ValueError(f"e={self.e:g} is too small: e^2 underflows to 0")


def z_for_confidence(level: float) -> float:
    """Z-score for a tabulated confidence level (0.90, 0.95, 0.99)."""
    try:
        return Z_TABLE[level]
    except KeyError:
        options = ", ".join(f"{k:.2f}" for k in sorted(Z_TABLE))
        raise ValueError(f"confidence {level} not tabulated; choose one of {options}") from None


def presample_std(samples) -> float:
    """Standard deviation of the pre-sample, population divisor N."""
    import statistics  # only samplesize --presample-file needs it

    values = list(samples)
    if not values:
        raise ValueError("pre-sample is empty")
    return statistics.pstdev(values)


def min_sample_size(inputs: SampleSizeInputs) -> float:
    """Minimum number of samples, un-rounded.

    z^2 s^2 / (e^2 + z^2 s^2 / n_t); the last term is the
    finite-population correction, which sends the requirement to
    z^2 s^2 / e^2 as n_t grows without bound.
    """
    zz_ss = inputs.z * inputs.z * inputs.s * inputs.s
    return zz_ss / (inputs.e * inputs.e + zz_ss / inputs.n_t)


def required_samples(inputs: SampleSizeInputs) -> int:
    """min_sample_size rounded up to a whole draw, capped at n_t."""
    return min(inputs.n_t, math.ceil(min_sample_size(inputs)))


def combined_min(sizes) -> float:
    """One experiment serving several metrics needs the largest answer."""
    values = list(sizes)
    if not values:
        raise ValueError("no sample sizes to combine")
    return max(values)


def random_sample(n_t: int, n: int, seed) -> list:
    """n distinct indices in [0, n_t), uniform, deterministic per seed."""
    if n > n_t:
        raise ValueError(f"sample size {n} exceeds population {n_t}")
    return sorted(random.Random(seed).sample(range(n_t), n))
