"""The multicore substrate: applications, cache monitoring/partitioning
(UMON, Talus, Futility Scaling), DVFS power, thermal and DRAM models,
the analytic core model, and the whole-chip glue."""

from .application import (
    AppProfile,
    CliffMRC,
    FlatMRC,
    MissRateCurve,
    MixtureMRC,
    Phase,
    PowerLawMRC,
)
from .chip import ChipModel
from .config import (
    CACHE_REGION_BYTES,
    KB,
    MB,
    CMPConfig,
    CoreConfig,
    cmp_8core,
    cmp_64core,
)
from .core_model import CoreModel, OperatingPoint
from .dram import DDR3Timing, DRAMModel, ddr3_1600
from .bandwidth import BandwidthAwareUtility, BandwidthModel, build_bandwidth_problem
from .futility import FutilityScalingController
from .lru_cache import AddressStreamGenerator, CacheStats, SetAssociativeCache
from .monitor import RuntimeMonitor
from .power import RAPL_QUANTUM_WATTS, DVFSPowerModel
from .spec_suite import INTENDED_CLASS, SPEC_SUITE, app_by_name, apps_in_class, spec_suite
from .talus import ShadowPartitionPlan, TalusController
from .thermal import ThermalModel, ThermalNode
from .umon import UMONShadowTags
from .utility_builder import build_true_utility, convexify_grid

__all__ = [
    "KB",
    "MB",
    "CACHE_REGION_BYTES",
    "CMPConfig",
    "CoreConfig",
    "cmp_8core",
    "cmp_64core",
    "MissRateCurve",
    "PowerLawMRC",
    "CliffMRC",
    "FlatMRC",
    "MixtureMRC",
    "Phase",
    "AppProfile",
    "SPEC_SUITE",
    "INTENDED_CLASS",
    "spec_suite",
    "app_by_name",
    "apps_in_class",
    "CoreModel",
    "OperatingPoint",
    "DDR3Timing",
    "DRAMModel",
    "ddr3_1600",
    "DVFSPowerModel",
    "RAPL_QUANTUM_WATTS",
    "ThermalNode",
    "ThermalModel",
    "UMONShadowTags",
    "TalusController",
    "ShadowPartitionPlan",
    "FutilityScalingController",
    "BandwidthModel",
    "BandwidthAwareUtility",
    "build_bandwidth_problem",
    "SetAssociativeCache",
    "AddressStreamGenerator",
    "CacheStats",
    "RuntimeMonitor",
    "ChipModel",
    "build_true_utility",
    "convexify_grid",
]
