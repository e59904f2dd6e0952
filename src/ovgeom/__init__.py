"""Exact geometric reductions from orthogonal-vectors instances.

Boolean-vector instances are embedded into points and planar curves so that
a distance threshold answers the original orthogonal-pair question; solvers,
nearest-neighbor structures, a mechanical verification harness, and a
scaling benchmark sit on top.  All correctness-relevant arithmetic is exact
rational — no floats anywhere near a comparison.
"""

from .core import (
    BitVector,
    Curve2,
    OvInstance,
    Point2,
    PointD,
    Rat,
    SqDist,
    as_integer_grid,
    curve,
    inner_product,
    ov_instance,
    point,
    squared_euclidean,
)
from .ov import (
    OvWitness,
    UnbalancedPlan,
    nth_root_ceil,
    ov_count,
    ov_decide,
    ov_decide_blocked,
    plan_unbalanced,
)
from .frechet import (
    FrechetResult,
    Traversal,
    brute_force_frechet_sq,
    frechet_decide,
    frechet_sq,
    frechet_sq_value,
    traversal_is_valid,
)
from .embed import (
    EuclidEmbedding,
    FrechetEmbedding,
    embed_euclid,
    embed_frechet,
)
from .gadgets import (
    GadgetConfig,
    GadgetValidation,
    OrGadget,
    default_gadget_config,
    or_gadget,
    validate_gadget_config,
    vector_gadget,
)
from .proximity import (
    BcpResult,
    CurveScanIndex,
    KdTreeIndex,
    LinearScanIndex,
    NN_METRICS,
    bcp_euclid,
    bcp_frechet,
    nn_build,
    nn_query,
)
from .generate import FAMILIES, GenSpec, generate, planted_witness
from .verify import (
    KINDS,
    ReductionReport,
    VerifyCaps,
    agreement_table,
    run_verify,
    verify_reduction,
)
from .bench import PROBLEMS, BenchRecord, bench_csv, run_bench

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "BitVector",
    "Curve2",
    "OvInstance",
    "Point2",
    "PointD",
    "Rat",
    "SqDist",
    "as_integer_grid",
    "curve",
    "inner_product",
    "ov_instance",
    "point",
    "squared_euclidean",
    # ov
    "OvWitness",
    "UnbalancedPlan",
    "nth_root_ceil",
    "ov_count",
    "ov_decide",
    "ov_decide_blocked",
    "plan_unbalanced",
    # frechet
    "FrechetResult",
    "Traversal",
    "brute_force_frechet_sq",
    "frechet_decide",
    "frechet_sq",
    "frechet_sq_value",
    "traversal_is_valid",
    # embeddings
    "EuclidEmbedding",
    "FrechetEmbedding",
    "embed_euclid",
    "embed_frechet",
    # gadgets
    "GadgetConfig",
    "GadgetValidation",
    "OrGadget",
    "default_gadget_config",
    "or_gadget",
    "validate_gadget_config",
    "vector_gadget",
    # proximity
    "BcpResult",
    "CurveScanIndex",
    "KdTreeIndex",
    "LinearScanIndex",
    "NN_METRICS",
    "bcp_euclid",
    "bcp_frechet",
    "nn_build",
    "nn_query",
    # generate
    "FAMILIES",
    "GenSpec",
    "generate",
    "planted_witness",
    # verify
    "KINDS",
    "ReductionReport",
    "VerifyCaps",
    "agreement_table",
    "run_verify",
    "verify_reduction",
    # bench
    "PROBLEMS",
    "BenchRecord",
    "bench_csv",
    "run_bench",
]
