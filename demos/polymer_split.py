"""Polymer form of the loop correction, and the small/large split.

A loop subgraph factorizes over its connected components, so the loop
sum can be rewritten as a sum over sets of pairwise node-disjoint
polymers (connected subgraphs with minimum degree 2).  This demo checks
the rewrite on a sampled instance, splits the sum at polymers touching
at least n/2 nodes, and compares the truncated Mayer expansion of
ln Z_corr against the exact value together with the convergence
criterion that controls it.
"""

import numpy as np

from loopexp import (ActivityTable, FactorSpec, convergence_criterion,
                     enumerate_polymers, mayer_expansion, sample_bsc,
                     sample_regular_graph, scan_correction, solve_fixed_point,
                     split_report, z_corr_polymer_form)


def main():
    n, d, p = 10, 3, 0.48
    graph = sample_regular_graph(n, d, seed=1)
    real = sample_bsc(graph, p, seed=101)
    spec = FactorSpec.cycle_code(real.h)
    msgs = solve_fixed_point(graph, spec, tol=1e-12)
    print(f"graph: n={n}, d={d}, p={p}, converged={msgs.converged}")

    catalog = enumerate_polymers(graph, node_cap=n)
    table = ActivityTable(graph, spec, msgs)
    acts = table.polymer_activities(catalog)
    print(f"polymers up to {n} nodes: {len(catalog)}")
    print(f"largest |activity|: {np.max(np.abs(acts)):.6e}")

    z_loops = scan_correction(graph, table).z_loops
    z_poly = z_corr_polymer_form(catalog, acts)
    print(f"Z_corr as loop sum      = {z_loops:.12f}")
    print(f"Z_corr over polymers    = {z_poly:.12f}   "
          f"(diff {abs(z_loops - z_poly):.3e})")

    # split at polymers covering at least half the nodes
    rep = split_report(graph, spec, msgs, catalog=catalog, table=table)
    print(f"\nsplit: z_small={rep.z_small:.9f}, large polymers={len(rep.large_ids)}, "
          f"tail bound={rep.tail_abs:.3e}")
    print(f"unique large polymer per collection: {rep.unique_large}")
    print(f"reconstructed Z_corr    = {rep.reconstructed:.12f}   "
          f"(diff {abs(rep.reconstructed - rep.z_polymer_all):.3e})")

    # Mayer expansion of ln Z_corr in powers of the polymer activities.
    # Near p=1/2 the cycle-code activities are order one and the
    # expansion has no business converging; the criterion says so.
    crit = convergence_criterion(catalog, acts)
    print(f"\nconvergence criterion at p={p}: {crit:.3e} (needs < 1)")

    # a weakly coupled model on the same graph sits inside the regime
    rng = np.random.default_rng(5)
    weak = FactorSpec.high_temperature(
        rng.uniform(-0.2, 0.2, graph.num_edges), J=0.05)
    msgs_w = solve_fixed_point(graph, weak, tol=1e-12)
    table_w = ActivityTable(graph, weak, msgs_w)
    acts_w = table_w.polymer_activities(catalog)
    crit_w = convergence_criterion(catalog, acts_w)
    target = np.log(z_corr_polymer_form(catalog, acts_w))
    print(f"weak coupling (J=0.05): criterion {crit_w:.3e}, "
          f"ln Z_corr = {target:+.12e}")
    exp = mayer_expansion(catalog, acts_w, M_max=3)
    for m, s in enumerate(exp.partial_sums, start=1):
        print(f"  Mayer order {m}: partial sum {s:+.12e}   "
              f"error {abs(s - target):.3e}")


if __name__ == "__main__":
    main()
