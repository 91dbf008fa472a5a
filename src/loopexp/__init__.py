"""Loop-series and polymer-expansion machinery for cycle codes on the BSC.

The package decomposes exact log-partition functions of edge-spin vertex
models on regular graphs into a Bethe term plus a loop correction, expands
the correction over polymers, and evaluates the bounds that control it.
"""

__version__ = "0.1.0"

from .exceptions import BudgetError, DivergenceError, PairingError
from .graphs import (CheckGraph, ExpansionVerdict, PolymerCatalog,
                     check_edge_expansion, edge_boundary, enumerate_polymers,
                     read_graph, sample_regular_graph, write_graph)
from .channel import (ChannelRealization, conditional_entropy_per_node,
                      half_llr_magnitude, read_channel_csv, sample_bsc,
                      write_channel_csv)
from .model import FactorSpec, exact_log_partition
from .bp import (BetheValue, MessageSet, bethe_log_partition, bp_sweep,
                 read_messages_csv, solve_fixed_point, write_messages_csv)
from .loopseries import (ActivityTable, CorrectionScan, ExpansionReport,
                         MayerExpansion, SplitReport, build_expansion_report,
                         convergence_criterion, mayer_expansion,
                         scan_correction, split_report, z_corr_polymer_form)
from .bounds import (DegreeProfileVector, ScanResult, activity_bound,
                     activity_bound_violations, expander_activity_bound,
                     exponent_function, mackay_probability_bound,
                     scan_exponent, subgraph_count_bound,
                     tail_probability_bound)
