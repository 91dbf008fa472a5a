"""Per-node slot arrays shared by the node-local layers.

Row a of each array describes node a's incident edges in ascending edge
order (slot k is ``graph.adjacency[a][k]``, the bit k of every local
bitmask); rows are padded to the largest degree.  They are the stored
form of a graph: ``CheckGraph`` builds its layout once, from the
validated endpoint array.  BP gathers and scatters messages through them;
the node tables of ``model`` are built per degree class; the capped
polymer catalog walks the neighbour array.

Message ``eta[e, 0]`` (u->v of edge e = (u, v)) is entry ``2e`` of the flat
directed-edge vector and ``eta[e, 1]`` entry ``2e + 1``; padded slots point
at the dummy entry ``2E`` of that vector extended by one zero.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Largest array a layer may build (entries; for the elimination, entries
# times payload length): 2^24 float64 entries is 128 MiB.
MAX_ENTRIES = 1 << 24

# Entries per block of a batched node computation (512 KiB of float64), so
# temporaries stay bounded whatever the number of nodes.
BLOCK_ENTRIES = 1 << 16


class Layout:
    """Gather/scatter indices of one graph.

    ``inc[a, k]`` and ``out[a, k]`` are the directed-edge indices of the
    messages into and out of a along slot k, ``eid[a, k]`` the edge and
    ``nbr[a, k]`` the neighbour (``n`` on padded slots).  ``ends`` holds
    the endpoints (u, v) of every edge and ``slot[e]`` the slot of e at u
    and at v.  ``classes`` lists ``(deg, nodes)`` per degree.
    """

    def __init__(self, n: int, ends: np.ndarray):
        E = len(ends)
        tails = ends.ravel()
        # stub 2e + j is endpoint j of edge e and the message out of it
        # along e; sorting by node, then stub, lists each node's edges in
        # ascending order
        stub = np.sort(tails * (2 * E) + np.arange(2 * E)) % (2 * E)
        deg = np.bincount(tails, minlength=n)
        dmax = int(deg.max())
        slot = np.arange(2 * E) - np.repeat(np.cumsum(deg) - deg, deg)
        pos = np.repeat(np.arange(n), deg) * dmax + slot

        def padded(values, fill):
            rows = np.full(n * dmax, fill, dtype=np.int64)
            rows[pos] = values
            return rows.reshape(n, dmax)

        self.inc = padded(stub ^ 1, 2 * E)
        self.out = padded(stub, 2 * E)
        self.eid = padded(stub >> 1, 0)
        self.nbr = padded(tails[stub ^ 1], n)
        self.pad = self.nbr == n
        self.deg = deg
        self.dmax = dmax
        self.ends = ends
        slot_of = np.empty(2 * E, dtype=np.int64)
        slot_of[stub] = slot
        self.slot = slot_of.reshape(E, 2)
        self.classes = tuple((int(d), np.flatnonzero(deg == d))
                             for d in np.flatnonzero(np.bincount(deg)))

    def half_fields(self, h: np.ndarray) -> np.ndarray:
        """h/2 of the edge in every slot, zero on padded slots."""
        hh = 0.5 * h[self.eid]
        hh[self.pad] = 0.0
        return hh


class Rows:
    """Rows of varying length stored flat (a node's table, a polymer's
    edges): ``rows[i]`` is a view of ``values[offsets[i]:offsets[i + 1]]``."""

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        self.values = values
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self[i] for i in range(len(self)))


def node_tables(lay: Layout, blocks) -> Rows:
    """Per-node tables of ``2**deg`` entries from ``(deg, nodes, rows)``
    blocks that hold every node once, row i the table of ``nodes[i]``."""
    offsets = np.concatenate([[0], np.cumsum(1 << lay.deg)])
    values = np.empty(int(offsets[-1]))
    for d, nodes, rows in blocks:
        values[offsets[nodes][:, None] + np.arange(1 << d)] = rows
    return Rows(values, offsets)
