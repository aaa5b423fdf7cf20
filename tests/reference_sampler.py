"""Reference pair sampler for the bit-identity tests of ``synth._pair_scores``.

This is the sampler as it was before ``_pair_scores`` moved to one reused
chunk buffer: it builds each chunk's samples, norms and differences as whole
``(chunk, d)`` temporaries. It defines the draws and the arithmetic that the
package's sampler must reproduce bit for bit.
"""

import numpy as np

from matchbreak.matcher import Metric
from matchbreak.rng import as_generator


def reference_pair_scores(model, metric, n_pairs, *, impostor, seed, chunk_size=20000):
    metric = Metric(metric)
    rng = as_generator(seed)
    n = model.num_identities
    out = np.empty(n_pairs, dtype=np.float64)
    done = 0
    while done < n_pairs:
        m = min(chunk_size, n_pairs - done)
        i = rng.integers(0, n, size=m)
        if impostor:
            j = (i + rng.integers(1, n, size=m)) % n  # never the same identity
        else:
            j = i
        a = model.centers[i] + model.within_noise_sigma * rng.standard_normal((m, model.dim))
        b = model.centers[j] + model.within_noise_sigma * rng.standard_normal((m, model.dim))
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        if np.any(na == 0.0) or np.any(nb == 0.0):
            raise RuntimeError("degenerate sample draw")  # probability zero
        a = a / na[:, None]
        b = b / nb[:, None]
        if metric is Metric.SED:
            diff = a - b
            out[done:done + m] = np.einsum("ij,ij->i", diff, diff)
        else:
            out[done:done + m] = np.einsum("ij,ij->i", a, b)
        done += m
    return out


def reference_breaking_values(model, labels, *, seed):
    """Breaking-set rows as ``gen_breaking_set`` drew them before it worked in place."""
    rng = as_generator(seed)
    values = model.centers[labels] + model.within_noise_sigma * rng.standard_normal((len(labels), model.dim))
    return values / np.linalg.norm(values, axis=1, keepdims=True)
