"""The package's public surface: which names ``ovgeom`` exports, and from where."""

import importlib
import sys

import pytest

import ovgeom

# The exported names, grouped by the submodule that defines each one.
EXPORTS = {
    "core": [
        "BitVector", "Curve2", "OvInstance", "Point2", "PointD", "Rat", "SqDist",
        "as_integer_grid", "curve", "inner_product", "ov_instance", "point",
        "squared_euclidean",
    ],
    "ov": [
        "OvWitness", "UnbalancedPlan", "nth_root_ceil", "ov_count", "ov_decide",
        "ov_decide_blocked", "plan_unbalanced",
    ],
    "frechet": [
        "FrechetResult", "Traversal", "brute_force_frechet_sq", "frechet_decide",
        "frechet_sq", "frechet_sq_value", "traversal_is_valid",
    ],
    "embed": ["EuclidEmbedding", "FrechetEmbedding", "embed_euclid", "embed_frechet"],
    "gadgets": [
        "GadgetConfig", "GadgetValidation", "OrGadget", "default_gadget_config",
        "or_gadget", "validate_gadget_config", "vector_gadget",
    ],
    "proximity": [
        "BcpResult", "CurveScanIndex", "KdTreeIndex", "LinearScanIndex",
        "NN_METRICS", "bcp_euclid", "bcp_frechet", "nn_build", "nn_query",
    ],
    "generate": ["FAMILIES", "GenSpec", "generate", "planted_witness"],
    "verify": [
        "KINDS", "ReductionReport", "agreement_table", "run_verify",
        "verify_reduction",
    ],
    "bench": ["BenchRecord", "PROBLEMS", "bench_csv", "run_bench"],
}


def test_exported_names_are_pinned():
    pinned = ["__version__"] + [name for names in EXPORTS.values() for name in names]
    assert len(pinned) == 61
    assert sorted(ovgeom.__all__) == sorted(pinned)
    assert len(set(ovgeom.__all__)) == len(ovgeom.__all__)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_defining_module_object(module):
    mod = importlib.import_module(f"ovgeom.{module}")
    assert sorted(mod.__all__) == sorted(EXPORTS[module])
    for name in EXPORTS[module]:
        assert getattr(ovgeom, name) is getattr(mod, name), name


def test_generate_is_bound_to_the_function():
    # The star import of ovgeom.generate rebinds the package attribute
    # ``generate`` from the submodule to the function of that name.
    assert ovgeom.generate is sys.modules["ovgeom.generate"].generate
    assert callable(ovgeom.generate)


def test_formats_and_cli_are_not_reexported():
    assert not {"FormatError", "parse_rat", "format_rat", "main"} & set(ovgeom.__all__)
