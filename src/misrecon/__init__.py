"""Graph reconstruction from maximal-independent-set queries.

A desk-scale laboratory around one query model: submit a vertex set, get
back some maximal independent set of the induced subgraph. The package
provides the hidden-graph oracle, randomized and cover-free-family-based
non-adaptive query schemes with a transcript decoder, and exact counting
experiments that reproduce the combinatorial machinery behind the known
query-complexity bounds at small scale.
"""

from .graphs import (
    AdversarialFamilyDesc,
    Graph,
    gen_bounded_degree,
    sample_clique_family,
    sample_blocked_clique_family,
)
from .coverfree import CffParams, SetFamily, dual, exact_t, is_cover_free, random_cff
from .oracle import Transcript, is_mis, run_scheme
from .reconstruct import DecodeResult, consistency_check, decode, success_rate
from .schemes import QueryScheme, cff_scheme, duality_check, is_query_scheme, randomized_scheme

__all__ = [
    "AdversarialFamilyDesc",
    "CffParams",
    "DecodeResult",
    "Graph",
    "QueryScheme",
    "SetFamily",
    "Transcript",
    "cff_scheme",
    "consistency_check",
    "decode",
    "dual",
    "duality_check",
    "exact_t",
    "gen_bounded_degree",
    "is_cover_free",
    "is_mis",
    "is_query_scheme",
    "random_cff",
    "randomized_scheme",
    "run_scheme",
    "sample_clique_family",
    "sample_blocked_clique_family",
    "success_rate",
]

__version__ = "0.1.0"
