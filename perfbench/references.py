"""Float references for the residue-large workload.

log v_g(r, k) from a plain float64 subset sum over itertools.combinations,
independent of thetacalc and of its necklace-orbit reduction:

    v_g(r, k) = n^{r(g-1)} * sum_S prod_{pairs s<t in S} (4 sin^2(pi (t-s) / n))^{1-g}

Terms are summed in log space, so no intermediate overflows.  Regenerate
residue_refs.json (4-7 s on a 2-vCPU VM) with

    python3 perfbench/references.py
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from checks import RESIDUE_REFS, residue_key
from workloads import RESIDUE_CASES

_CHUNK = 1 << 17


def log_v(n: int, r: int, genera: tuple[int, ...]) -> dict[int, float]:
    """log v_g(r, n - r) for each g in genera, from one subset enumeration."""
    log_s = np.zeros(n)
    log_s[1:] = np.log(4 * np.sin(np.pi * np.arange(1, n) / n) ** 2)
    pairs = list(itertools.combinations(range(r), 2))
    combos = itertools.combinations(range(n), r)
    # Per genus: running (max exponent, scaled sum) of exp((1-g) * L(S)).
    acc = {g: (-math.inf, 0.0) for g in genera}
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, _CHUNK)), dtype=np.int64
        )
        if flat.size == 0:
            break
        members = flat.reshape(-1, r)
        total = np.zeros(len(members))
        for i, j in pairs:
            total += log_s[members[:, j] - members[:, i]]
        for g in genera:
            expo = (1 - g) * total
            peak, scaled = acc[g]
            top = max(peak, float(expo.max()))
            scaled = scaled * math.exp(peak - top) + float(np.exp(expo - top).sum())
            acc[g] = (top, scaled)
    return {
        g: r * (g - 1) * math.log(n) + peak + math.log(scaled)
        for g, (peak, scaled) in acc.items()
    }


def compute() -> dict[str, float]:
    """log v for every residue-large query, keyed by checks.residue_key."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for g, n, r in RESIDUE_CASES:
        by_shape.setdefault((n, r), []).append(g)
    refs = {}
    for (n, r), genera in sorted(by_shape.items()):
        for g, value in log_v(n, r, tuple(genera)).items():
            refs[residue_key(g, n, r)] = value
    return refs


def main() -> None:
    RESIDUE_REFS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
