"""Monte Carlo estimation of the probability that two random order-k
elements generate the parity-appropriate full group.

Two samplers ship, since the underlying question does not fix a
distribution: products of the maximum number of disjoint k-cycles, and
uniform permutations conditioned on having order exactly k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import classify
from .errors import InvalidParams, InvalidSampler, TrialsZero
from .perms import Permutation, is_even, order_of

SAMPLERS = ("max_disjoint_k_cycles", "uniform_order_k")

# Uniform draws the rejection sampler makes before it gives up on one sample.
MAX_REJECTS = 1_000_000

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95):
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise TrialsZero("need trials >= 1")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def sample_max_disjoint_k_cycles(rng: np.random.Generator, k: int, n: int) -> Permutation:
    """Uniform random injection of floor(n/k)*k points into cycle slots."""
    ell = n // k
    points = rng.permutation(n)[: ell * k]
    images = list(range(n))
    for c in range(ell):
        cyc = points[c * k : (c + 1) * k]
        for i in range(k):
            images[int(cyc[i])] = int(cyc[(i + 1) % k])
    return Permutation(tuple(images))


def sample_uniform_order_k(rng: np.random.Generator, k: int, n: int) -> Permutation:
    """Rejection sampling from uniform permutations, accepting order k."""
    for _ in range(MAX_REJECTS):
        p = Permutation(tuple(int(x) for x in rng.permutation(n)))
        if order_of(p) == k:
            return p
    raise InvalidParams(
        f"no order-{k} permutation found in {MAX_REJECTS} uniform samples (n={n})"
    )


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def count_order_k(k: int, n: int) -> int:
    """Exact number of permutations of degree n with order exactly k.

    Permutations whose cycle lengths all divide d have the exponential
    generating function exp(sum_{j | d} x^j / j), so their number a(m)
    satisfies a(m) = sum_{j | d, j <= m} (m-1)!/(m-j)! * a(m-j).  Their
    orders are the divisors of d, so subtracting the exact counts of the
    proper divisors (Moebius inversion) leaves order exactly d.
    """
    exact: dict[int, int] = {}
    for d in _divisors(k):
        lengths = _divisors(d)
        a = [1]
        for m in range(1, n + 1):
            a.append(sum(math.perm(m - 1, j - 1) * a[m - j] for j in lengths if j <= m))
        exact[d] = a[n] - sum(c for e, c in exact.items() if d % e == 0)
    return exact[k]


_SAMPLER_FNS = {
    "max_disjoint_k_cycles": sample_max_disjoint_k_cycles,
    "uniform_order_k": sample_uniform_order_k,
}


@dataclass(frozen=True)
class EstimatorResult:
    k: int
    n: int
    sampler: str
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise InvalidParams("successes out of range")
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise InvalidParams("interval must contain the point estimate")


def estimate_generation(
    k: int, n: int, trials: int, sampler: str, seed: int
) -> EstimatorResult:
    """Sample pairs of order-k elements and count pairs generating the
    parity-appropriate target (A_n when both elements are even, S_n
    otherwise).  Fully reproducible from the seed."""
    if sampler not in _SAMPLER_FNS:
        raise InvalidSampler(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if trials < 1:
        raise TrialsZero(f"need trials >= 1, got {trials}")
    if not 2 <= k <= n:
        raise InvalidParams(f"need 2 <= k <= n, got k={k}, n={n}")
    if sampler == "uniform_order_k":
        # expected draws per accepted sample is n!/count; refuse up front
        # when that is beyond the rejection budget instead of sampling
        count = count_order_k(k, n)
        if math.factorial(n) > MAX_REJECTS * count:
            raise InvalidParams(
                f"order-{k} permutations are 1 in "
                f"{math.factorial(n) / count:.3g} of S_{n}, beyond the "
                f"{MAX_REJECTS} rejection draws per sample"
            )
    draw = _SAMPLER_FNS[sampler]
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(trials):
        p, q = draw(rng, k, n), draw(rng, k, n)
        target = "alternating" if is_even(p) and is_even(q) else "symmetric"
        if classify([p, q]).kind == target:
            successes += 1
    low, high = wilson_interval(successes, trials)
    return EstimatorResult(
        k, n, sampler, trials, successes, successes / trials, low, high, seed
    )
