"""Per-node slot arrays shared by the node-local layers.

Row a of each array describes node a's incident edges in ascending edge
order (slot k is edge ``graph.layout.eid[a, k]``, the bit k of every
local bitmask); rows are padded to the largest degree.  They are the stored
form of a graph alone (``model`` binds a spec's fields to the slots):
``CheckGraph`` builds its layout once, from the validated endpoint array.
BP gathers and scatters messages through them; the node tables of
``model`` are built per degree class; the capped polymer catalog walks the
neighbour array.

Message ``eta[e, 0]`` (u->v of edge e = (u, v)) is entry ``2e`` of the flat
directed-edge vector and ``eta[e, 1]`` entry ``2e + 1``; padded slots point
at the dummy entry ``2E`` of that vector extended by one zero.

The helpers at the end handle packed rows, the sets of positions that the
polymer walks hold as uint64 words.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .exceptions import BudgetError

# Largest array a layer may build (entries; for the elimination, entries
# times payload length): 2^24 float64 entries is 128 MiB.
MAX_ENTRIES = 1 << 24

# Entries per block of a batched node computation (512 KiB of float64), so
# temporaries stay bounded whatever the number of nodes.
BLOCK_ENTRIES = 1 << 16


def check_budget(size: int, what: str, *args, unit: str = "entries",
                 cap: Optional[int] = None) -> None:
    """The package's one refusal rule, asked before a thing is built:
    BudgetError when its ``size``, in ``unit``, passes ``cap`` (None:
    ``MAX_ENTRIES`` as it stands at the call).  The message, built only on
    refusal, names the thing, ``what.format(*args)``, its size and the cap."""
    cap = MAX_ENTRIES if cap is None else cap
    if size > cap:
        raise BudgetError(f"{what.format(*args)} would need {size:,} "
                          f"{unit}, over the cap of {cap:,}")


def within_budget(size: int) -> bool:
    """Whether ``check_budget`` admits ``size`` entries."""
    return size <= MAX_ENTRIES


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


def component_roots(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """Each of ``size`` items' least linked item, the root of its connected
    component under the links (u[i], v[i]).

    Hooks the larger of two linked roots under the smaller and follows
    pointers until no link joins two roots.
    """
    label = np.arange(size)
    while True:
        lu, lv = label[u], label[v]
        if not (lu != lv).any():
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while ((up := label[label]) != label).any():
            label = up


def consecutive(nodes: np.ndarray) -> bool:
    """Whether ascending ``nodes`` are a run n0, n0 + 1, ... (every block
    of a regular graph)."""
    return nodes[-1] - nodes[0] == len(nodes) - 1


def columns(a: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``a[:, nodes]`` for ascending ``nodes``, a view if they are
    consecutive."""
    if consecutive(nodes):
        return a[:, nodes[0]:nodes[-1] + 1]
    return np.take(a, nodes, axis=1)


def node_tables(lay: Layout, blocks) -> Rows:
    """Per-node tables of ``2**deg`` entries from config-major ``(deg,
    nodes, cols)`` blocks that hold every node once: column i of ``cols``
    (2**deg, len(nodes)) is the table of ``nodes[i]``."""
    offsets = np.concatenate([[0], np.cumsum(1 << lay.deg)])
    values = np.empty(int(offsets[-1]))
    for d, nodes, cols in blocks:
        if consecutive(nodes):    # their tables are one run of values
            lo = offsets[nodes[0]]
            values[lo:lo + cols.size].reshape(-1, 1 << d)[...] = cols.T
        else:
            values[np.arange(1 << d)[:, None] + offsets[nodes]] = cols
    return Rows(values, offsets)


# Packed rows: a set of positions is a row of uint64 words, bit j of word
# i holding position 64 i + j.

def word_bit(x: np.ndarray) -> np.ndarray:
    """The uint64 word of each position ``x`` with its bit x % 64 set."""
    return np.uint64(1) << (x & 63).astype(np.uint64)


def packed(flags: np.ndarray) -> np.ndarray:
    """Boolean rows (..., M) packed into uint64 words (..., ceil(M/64))."""
    M = flags.shape[-1]
    octets = np.zeros(flags.shape[:-1] + (-(-M // 64) * 8,), dtype=np.uint8)
    octets[..., :-(-M // 8)] = np.packbits(flags, axis=-1, bitorder="little")
    return octets.view("<u8").astype(np.uint64)


def set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, position) of every set bit of the rows ``words`` (N, W), by
    row, then position ascending.  Rows of one word are unpacked whole;
    wider rows only at their nonzero words."""
    if words.shape[1] == 1:
        octets = words.astype("<u8", copy=False).view(np.uint8)
        return np.nonzero(np.unpackbits(octets, axis=1, bitorder="little"))
    r, w = np.nonzero(words)
    octets = words[r, w].astype("<u8", copy=False).view(np.uint8).reshape(
        -1, 8)
    i, b = np.nonzero(np.unpackbits(octets, axis=1, bitorder="little"))
    return r[i], w[i] * 64 + b


def runs(kids: np.ndarray, batch: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of the runs of consecutive states, with ``kids``
    children each, that hold at most ``batch`` children (plus one state's),
    last run first, so that a stack expands the first run first."""
    if kids.sum() <= batch:
        return [(0, len(kids))]
    run = (np.cumsum(kids) - kids) // batch
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(kids)]
    return list(zip(cuts, cuts[1:]))[::-1]
