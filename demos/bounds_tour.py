"""Tour of the counting and activity bounds behind the expansion.

Four checks on small instances:

1. the per-polymer activity bound against activities measured at an
   actual fixed point,
2. the containment probability bound for a fixed shape against a
   Monte Carlo frequency over random regular graphs,
3. the count bound for loop subgraphs with a given degree profile
   against an exhaustive count on a complete graph,
4. the exponent surface that combines both: where it is negative for
   every admissible profile, the expected large-loop contribution is
   exponentially small in n.
"""

import itertools

import numpy as np

from loopexp import (ActivityTable, CheckGraph, FactorSpec,
                     activity_bound, activity_bound_violations,
                     enumerate_polymers, mackay_probability_bound, sample_bsc,
                     sample_regular_graph, scan_exponent, solve_fixed_point,
                     subgraph_count_bound, tail_probability_bound)


def measured_vs_bound():
    n, d, p = 12, 3, 0.45
    graph = sample_regular_graph(n, d, seed=9)
    real = sample_bsc(graph, p, seed=90)
    spec = FactorSpec.cycle_code(real.h)
    msgs = solve_fixed_point(graph, spec, tol=1e-12)
    catalog = enumerate_polymers(graph, node_cap=n)
    table = ActivityTable(graph, spec, msgs)
    acts = table.polymer_activities(catalog)
    h = float(np.max(np.abs(real.h)))
    bad = activity_bound_violations(catalog, acts, h)
    print(f"1) activities vs bound: {len(catalog)} polymers, "
          f"h_max={h:.4f}, violations={len(bad)}")
    ratios = []
    for k, profile in enumerate(catalog.profiles.tolist()):
        b = activity_bound(profile, h)
        if b > 0:
            ratios.append((abs(float(acts[k])) / b, abs(float(acts[k])), b))
    for r, a, b in sorted(ratios, reverse=True)[:3]:
        print(f"   |K|={a:.3e}  bound={b:.3e}  ratio={r:.3f}")


def containment_frequency():
    # triangle shape: 3 nodes of degree 2, none of degree 3
    shape = [(0, 1), (1, 2), (0, 2)]
    profile = (3, 0)
    n, d, samples = 20, 3, 4000
    hits = 0
    for s in range(samples):
        g = sample_regular_graph(n, d, seed=[21, s])
        ends = set(map(tuple, g.layout.ends.tolist()))
        hits += all(e in ends for e in shape)
    freq = hits / samples
    sigma = np.sqrt(freq * (1.0 - freq) / samples)
    bound = mackay_probability_bound(profile, n, d)
    print(f"2) triangle containment on n={n}: freq={freq:.5f} "
          f"(+3sd {freq + 3 * sigma:.5f}) <= bound {bound:.5f}")


def count_vs_bound():
    n = 5
    host = CheckGraph(n, n - 1, list(itertools.combinations(range(n), 2)))
    counts = {}
    for r in range(1, host.num_edges + 1):
        for edges in itertools.combinations(range(host.num_edges), r):
            # induced degree of every node, then nodes per degree
            deg = np.bincount(host.layout.ends[list(edges)].ravel(),
                              minlength=n)
            if not np.any(deg == 1):
                prof = tuple(np.bincount(deg, minlength=n)[2:].tolist())
                counts[prof] = counts.get(prof, 0) + 1
    worst = None
    for prof, c in counts.items():
        ratio = subgraph_count_bound(prof, n) / c
        if worst is None or ratio < worst[0]:
            worst = (ratio, prof, c)
    print(f"3) loop counts on K{n}: {len(counts)} profiles, "
          f"tightest bound/count = {worst[0]:.3f} "
          f"(profile {list(worst[1])}: {worst[2]} subgraphs)")


def exponent_surface():
    d = 3
    for h in (0.02, 0.10):
        res = scan_exponent(d, h, grid_step=0.01)
        print(f"4) exponent surface d={d}, h={h}: "
              f"max={res.max_value:+.6f} at x={tuple(round(v, 2) for v in res.argmax)}, "
              f"all_negative={res.all_negative}")
    tp = {n: tail_probability_bound(0.05, 0.02, 3, n) for n in (100, 1000, 10000)}
    vals = ", ".join(f"n={n}: {v:.3e}" for n, v in tp.items())
    print(f"   tail probability bound at h=0.02, delta=0.05: {vals}")


def main():
    measured_vs_bound()
    containment_frequency()
    count_vs_bound()
    exponent_surface()


if __name__ == "__main__":
    main()
