"""Simulation-based confidence upper bounds on Markov chain spectral gaps.

The library estimates, from sample paths alone, a high-probability upper
confidence bound on the second eigenvalue of a reversible, irreducible,
aperiodic finite chain - and with it the spectral gap and relaxation time -
in O(K) memory, independent of the state-space size.
"""

from .chains import (
    BiasedLineChain,
    DenseMatrixChain,
    RegularGraphChain,
    SquaredChainOracle,
    TabularSampler,
    UniformSampler,
    exact_spectrum,
    generate_regular_graph,
    line_stationary,
    load_matrix_chain,
    return_probability_curve,
    save_matrix_chain,
)
from .estimator import (
    ReturnCountAccumulator,
    TheoryDiagnostics,
    UcpiConfig,
    UcpiEstimate,
    WeightedReturnAccumulator,
    bernoulli_kl,
    confidence_upper_bound,
    config_for_budget,
    finalize_estimate,
    finalize_weighted,
    plugin_bound,
    relaxation_upper_bound,
    theory_diagnostics,
    validity_check,
)
from .sampling import (
    CollectionError,
    NonLazyEstimate,
    RtfEngine,
    UspEngine,
    UspStats,
    estimate_nonlazy,
    rtf_collect,
    states_from_file,
    trajectory_from_oracle,
    usp_collect,
    weighted_collect,
)

__version__ = "0.1.0"
