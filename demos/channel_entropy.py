"""Conditional entropy of a cycle-code input given the channel output.

For a code whose checks sit on the nodes of a d-regular graph and whose
bits sit on the edges, the per-bit conditional entropy H(X|Y)/n follows
from the average free energy of the edge-spin model built on the
channel realization.  The Bethe free energy gives a cheap estimate; the
gap to the exact value is exactly the loop correction (ln Z_corr)/n,
averaged over realizations.

At p = 1/2 the output carries no information and the entropy reduces to
the dimension count (# edges - # nodes + # components) * ln 2 / n.
"""

import numpy as np

from loopexp import (ActivityTable, FactorSpec, bethe_log_partition,
                     conditional_entropy_per_node, exact_log_partition,
                     sample_bsc, sample_regular_graph, scan_correction,
                     solve_fixed_point)


def main():
    n, d, trials = 10, 3, 40
    print(f"n={n}, d={d}, {trials} realizations per crossover probability\n")
    print(f"{'p':>5} {'H_bethe/n':>12} {'H_exact/n':>12} {'gap':>12} "
          f"{'mean lnZcorr/n':>15}")
    for p in (0.30, 0.40, 0.45, 0.50):
        h_b, h_e, corr = [], [], []
        for t in range(trials):
            graph = sample_regular_graph(n, d, seed=[1, t])
            real = sample_bsc(graph, p, seed=[2, t])
            spec = FactorSpec.cycle_code(real.h)
            msgs = solve_fixed_point(graph, spec, tol=1e-12)
            if not msgs.converged:
                continue
            f_bethe = bethe_log_partition(graph, spec, msgs).total / n
            f_exact = exact_log_partition(graph, spec) / n
            h_b.append(conditional_entropy_per_node(f_bethe, p))
            h_e.append(conditional_entropy_per_node(f_exact, p))
            table = ActivityTable(graph, spec, msgs)
            corr.append(np.log(scan_correction(graph, table).z_all) / n)
        hb, he = np.mean(h_b), np.mean(h_e)
        print(f"{p:>5.2f} {hb:>12.6f} {he:>12.6f} {he - hb:>12.6f} "
              f"{np.mean(corr):>15.6f}   ({len(h_b)}/{trials} converged)")

    # p = 1/2: entropy counts the code dimension exactly
    p = 0.5
    graph = sample_regular_graph(n, d, seed=[1, 0])
    real = sample_bsc(graph, p, seed=[2, 0])
    spec = FactorSpec.cycle_code(real.h)
    f_exact = exact_log_partition(graph, spec) / n
    ent = conditional_entropy_per_node(f_exact, p)
    c = len(graph.components())
    dim = (graph.num_edges - n + c) * np.log(2.0) / n
    print(f"\np=1/2 check: H(X|Y)/n = {ent:.12f}, "
          f"(|E| - n + c) ln2 / n = {dim:.12f}, "
          f"diff {abs(ent - dim):.3e}")


if __name__ == "__main__":
    main()
