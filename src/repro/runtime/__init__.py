"""Run-time management: external memory, reconfiguration controller, manager."""

from repro.runtime.memory import ExternalMemory, StoredImage
from repro.runtime.admission import (
    POLICY_KINDS,
    make_policy,
    validate_policy_request,
)
from repro.runtime.costmodel import (
    CachedDecode,
    CostParams,
    DecodeCache,
    DecodeCacheStats,
    LoadCost,
    decode_cost,
    lpt_makespan,
    percentile,
    write_cost,
)
from repro.runtime.controller import ReconfigurationController, ResidentTask
from repro.runtime.fleet import (
    ROUTER_KINDS,
    ConsistentHashRouter,
    FleetManager,
    LoadAwareRouter,
    make_router,
    validate_fleet_request,
)
from repro.runtime.manager import BEST_FIT, FIRST_FIT, FabricManager
from repro.runtime.workload import (
    ARRIVAL_KINDS,
    TRACE_KINDS,
    TraceEvent,
    WorkloadSimulator,
    WorkloadTrace,
    generate_trace,
    run_scenario,
    summarize_report,
    synthesize_task_images,
    synthesize_task_scope_images,
)

__all__ = [
    "ExternalMemory",
    "StoredImage",
    "POLICY_KINDS",
    "make_policy",
    "validate_policy_request",
    "CachedDecode",
    "CostParams",
    "DecodeCache",
    "DecodeCacheStats",
    "LoadCost",
    "decode_cost",
    "lpt_makespan",
    "percentile",
    "write_cost",
    "ReconfigurationController",
    "ResidentTask",
    "ROUTER_KINDS",
    "ConsistentHashRouter",
    "FleetManager",
    "LoadAwareRouter",
    "make_router",
    "validate_fleet_request",
    "BEST_FIT",
    "FIRST_FIT",
    "FabricManager",
    "ARRIVAL_KINDS",
    "TRACE_KINDS",
    "TraceEvent",
    "WorkloadSimulator",
    "WorkloadTrace",
    "generate_trace",
    "run_scenario",
    "summarize_report",
    "synthesize_task_images",
    "synthesize_task_scope_images",
]
