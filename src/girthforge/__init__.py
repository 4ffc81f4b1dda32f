"""Certified extraction of even-cycle-free and high-girth subgraphs."""

from .graph import (
    CertificationError,
    CycleWitness,
    EdgeListParseError,
    ForbiddenFamily,
    Graph,
    INFINITE,
    Verdict,
    VertexColoring,
    certify,
    check_family_free,
    family_girth,
    find_short_even_cycle,
    girth,
    girth_with_witness,
    parse_edge_list,
)
from .hosts import HostGraph, greedy_high_girth, incidence_graph_pg2, polarity_graph
from .partition import Partition, max_kpartite
from .edge_extract import extract_even_cycle_free
from .degree_extract import extract_spanning_high_girth
from .oracle import ExactResult, cherry_check, exact_ex
from .report import ExtractionReport

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CycleWitness",
    "EdgeListParseError",
    "ExactResult",
    "ExtractionReport",
    "ForbiddenFamily",
    "Graph",
    "HostGraph",
    "INFINITE",
    "Partition",
    "Verdict",
    "VertexColoring",
    "certify",
    "check_family_free",
    "cherry_check",
    "exact_ex",
    "extract_even_cycle_free",
    "extract_spanning_high_girth",
    "family_girth",
    "find_short_even_cycle",
    "girth",
    "girth_with_witness",
    "greedy_high_girth",
    "incidence_graph_pg2",
    "max_kpartite",
    "parse_edge_list",
    "polarity_graph",
    "__version__",
]
