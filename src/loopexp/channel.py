"""Binary symmetric channel realizations on graph edges.

Transmission of the all-one codeword through a BSC with flip probability p
puts an independent half log-likelihood field on every edge:
h = +(1/2) ln((1-p)/p) with probability 1-p and the opposite sign with
probability p.  Fields are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import parse, read_csv, write_csv
from .graphs import CheckGraph

__all__ = [
    "ChannelRealization",
    "half_llr_magnitude",
    "sample_bsc",
    "conditional_entropy_per_node",
    "write_channel_csv",
    "read_channel_csv",
    "P_MIN",
]

P_MIN = 1e-6


def half_llr_magnitude(p: float) -> float:
    """|h| = (1/2) ln((1-p)/p); zero at p = 1/2."""
    if not 0 < p <= 0.5:
        raise ValueError(f"flip probability {p} outside (0, 1/2]")
    return 0.5 * math.log((1.0 - p) / p)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-edge fields h together with the flip probability that produced them."""

    p: float
    h: np.ndarray
    signs: np.ndarray  # +1 where the edge bit survived, -1 where it flipped
    seed: object = None

    @property
    def magnitude(self) -> float:
        return half_llr_magnitude(self.p)


def _check_flip_probability(p: float) -> None:
    """ValueError unless ``sample_bsc`` takes flip probability p."""
    if not P_MIN <= p <= 0.5:
        raise ValueError(f"flip probability {p} outside [{P_MIN}, 0.5]")


def sample_bsc(graph: CheckGraph, p: float, seed) -> ChannelRealization:
    """Draw sign flips for every edge of ``graph`` at flip probability p.

    p must lie in [P_MIN, 1/2]; smaller values make the fields numerically
    degenerate (|h| grows like ln(1/p)) and p > 1/2 has no decoding meaning
    under the all-one convention.
    """
    _check_flip_probability(p)
    rng = np.random.default_rng(seed)
    flips = rng.random(graph.num_edges) < p
    signs = np.where(flips, -1.0, 1.0)
    h = half_llr_magnitude(p) * signs
    return ChannelRealization(p=p, h=h, signs=signs, seed=seed)


def conditional_entropy_per_node(avg_free_energy: float, p: float) -> float:
    """H(X|Y)/n from the quenched average f = E[ln Z]/n, in nats.

    H/n = f - (1 - 2p) |h|, with |h| and its range check from
    ``half_llr_magnitude``.
    """
    return avg_free_energy - (1.0 - 2.0 * p) * half_llr_magnitude(p)


def write_channel_csv(real: ChannelRealization, path) -> None:
    """Rows ``edge,sign,h`` for every edge, with ``p`` (and an int seed) as
    metadata, in the package's CSV format."""
    meta = {"p": real.p}
    if isinstance(real.seed, int):
        meta["seed"] = real.seed
    write_csv(path, meta, ["edge", "sign", "h"],
              [[e, int(s), float(h)]
               for e, (s, h) in enumerate(zip(real.signs, real.h))])


def read_channel_csv(path) -> ChannelRealization:
    """The realization written by :func:`write_channel_csv`.  Raises
    ValueError without the header or ``# p=``, for a p that ``sample_bsc``
    refuses, a seed that is not an integer, a row of other than three
    fields or with a field that is not a number (an edge index that is
    not an integer), for edges out of order, and at the first edge whose
    sign is not +-1 or whose h is not sign * |h(p)|, the value
    ``sample_bsc`` draws."""
    meta, rows = read_csv(path, ["edge", "sign", "h"])
    if "p" not in meta:
        raise ValueError(f"{path}: missing '# p=' header")
    p = parse(path, "p", meta["p"], float)
    _check_flip_probability(p)
    magnitude = half_llr_magnitude(p)
    signs, h = [], []
    for idx, row in enumerate(rows):
        if parse(path, "edge", row[0], int, row) != idx:
            raise ValueError(f"{path}: edge indices out of order")
        sign = parse(path, "sign", row[1], float, row)
        value = parse(path, "h", row[2], float, row)
        if sign not in (1.0, -1.0):
            raise ValueError(f"{path}: edge {idx} has sign {row[1]}, "
                             f"expected 1 or -1")
        if value != sign * magnitude:
            raise ValueError(f"{path}: edge {idx} has h={row[2]}, expected "
                             f"{sign * magnitude!r} at p={p!r}")
        signs.append(sign)
        h.append(value)
    seed = parse(path, "seed", meta["seed"], int) if "seed" in meta else None
    return ChannelRealization(p=p, h=np.array(h), signs=np.array(signs),
                              seed=seed)
