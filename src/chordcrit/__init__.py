"""Chord graphs of the n-cycle and machine verification of their colouring
properties: generators, an exact colouring solver, per-edge colouring
certificates, and the clone-construction homomorphism chain."""

from .graph import (
    Coloring,
    ColoringCheck,
    Edge,
    Graph,
    MissingEdgeError,
    build_graph,
    count_colors,
    delete_edge,
    delete_vertex,
    edge,
    export_graph,
    is_proper_coloring,
    parse_graph,
)
from .families import (
    Chord,
    InvalidParametersError,
    PairClass,
    chord_base,
    chord_label,
    classify_pair,
    gn,
    gn_chords,
    kneser,
    mycielski,
    mycielski_iter,
    parse_chord,
    schrijver,
    stable_subsets,
)
from .pairs import PairCounts, count_pairs, edge_ratio
from .solver import (
    ChromaticResult,
    ColorDecision,
    SolverConfig,
    chromatic_number,
    clique_bound,
    greedy_bound,
    is_k_colorable,
)
from .criticality import (
    CertificateColoring,
    CriticalCase,
    NotAnEdgeError,
    critical_coloring,
    min_based_coloring,
    select_case,
    verify_edge_criticality,
    verify_vertex_criticality,
)
from .homomorphism import build_h, lower_bound_chain, verify_homomorphism
from .diagrams import chord_diagram
