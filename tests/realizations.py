"""Random +-1-valued realizations for the realization-soundness tests."""

from typing import Sequence

import numpy as np

from bellcert.verify import Realization


def random_realization(n: int, rng: np.random.Generator,
                       dims: Sequence[int] = (2, 4)) -> Realization:
    """Random +-1-valued observables, for realization-soundness checks."""
    pairs = []
    for _ in range(n):
        d = int(rng.choice(list(dims)))
        site_pair = []
        for _ in range(2):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            v, _r = np.linalg.qr(g)
            signs = rng.choice([-1.0, 1.0], size=d)
            obs = (v * signs) @ v.conj().T
            obs = (obs + obs.conj().T) / 2
            site_pair.append(obs)
        pairs.append(tuple(site_pair))
    return Realization(tuple(pairs))
