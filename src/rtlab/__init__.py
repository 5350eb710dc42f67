"""rtlab: exact thresholds, counts, and certificates for edge colorings in
which no k-clique may carry s or more distinct colors."""

__version__ = "0.1.0"

from .exactnum import PowerProduct, pp_floor
from .graphs import Graph, complete, complete_multipartite, parse_graph6, turan_graph, \
    write_graph6
from .thresholds import threshold_report, turan_ex

__all__ = [
    "__version__",
    "PowerProduct", "pp_floor",
    "Graph", "complete", "complete_multipartite", "parse_graph6", "turan_graph",
    "write_graph6",
    "threshold_report", "turan_ex",
]
