"""Synthetic workload models: microbenchmarks and the 112-app registry."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .characterize import TraceCharacteristics, characterization_table, characterize
    from .microbench import (
        CU_VALIDATION_SHAPES,
        FMA_LAYOUTS,
        PAPER_FMA_COUNT,
        cu_validation_microbenchmark,
        fma_microbenchmark,
        scaled_imbalance_microbenchmark,
    )
    from .profiles import PROFILE_VERSION, AppProfile
    from .registry import (
        COMPUTE_BOUND_APPS,
        EXPECTED_APP_COUNT,
        RF_SENSITIVE_APPS,
        SENSITIVE_APPS,
        all_profiles,
        app_names,
        compiled_code_key,
        get_compiled_kernel,
        get_kernel,
        get_profile,
        suites,
    )
    from .synth import build_cta_trace, build_kernel, build_warp_trace
    from .tpch import all_tpch_profiles, tpch_kernel, tpch_profile, tpch_queries

__all__ = lazy_package(
    __name__,
    {
        "characterize": [
            "TraceCharacteristics", "characterization_table", "characterize",
        ],
        "microbench": [
            "CU_VALIDATION_SHAPES", "FMA_LAYOUTS", "PAPER_FMA_COUNT",
            "cu_validation_microbenchmark",
            "fma_microbenchmark", "scaled_imbalance_microbenchmark",
        ],
        "profiles": ["PROFILE_VERSION", "AppProfile"],
        "registry": [
            "COMPUTE_BOUND_APPS", "EXPECTED_APP_COUNT", "RF_SENSITIVE_APPS",
            "SENSITIVE_APPS", "all_profiles", "app_names", "compiled_code_key",
            "get_compiled_kernel", "get_kernel", "get_profile", "suites",
        ],
        "synth": ["build_cta_trace", "build_kernel", "build_warp_trace"],
        "tpch": ["all_tpch_profiles", "tpch_kernel", "tpch_profile", "tpch_queries"],
    },
)
