"""Per-tenant carbon footprint allocation and reporting for shared data centers.

The package attributes a multi-tenant data center's operational emissions
(GHG Protocol Scopes 1-3) to its service tenants and renders auditable
per-tenant reports. The pipeline:

1. ingest: parse and cross-validate the period's CSV exports.
2. power: estimate per-device energy (calibrated server models, fixed
   per-byte network cost) and split shared energy proportionally.
3. allocation: fleet-wide totals, then per-tenant Scope 2, responsibility
   ratios, Scopes 1 and 3, gross and net footprints, plus a conservation
   audit.
4. report: deterministic JSON plus a one-page human-readable document.
"""

from .allocation import (
    AuditCheck,
    AuditReport,
    DcFootprint,
    DeviceShare,
    FleetTotals,
    Footprint,
    HistoryEntry,
    ResponsibilityRatio,
    TenantDcScope2,
    compute_footprints,
    compute_responsibility_ratios,
    compute_scope2,
    conservation_audit,
    fleet_totals,
    tenant_footprint,
)
from .errors import (
    CarbonAllocError,
    DuplicateDevice,
    DuplicateId,
    IngestError,
    InsufficientSamples,
    MalformedRow,
    MissingModel,
    OrphanUsage,
    PowerModelError,
    RangeError,
    SingularDesign,
    UnitError,
    UnknownDataCenter,
    UnknownTenant,
    ValidationFailure,
    ZeroDcScope2,
    ZeroDenominator,
)
from .history import HistoryStore
from .ingest import (
    DataCenter,
    FuelEntry,
    NetworkUsage,
    RawData,
    ServerUsage,
    SharedDevice,
    Tenant,
    assemble_raw_data,
    load_input_dir,
    read_datacenters,
    read_network,
    read_servers,
    read_tenants,
)
from .power import (
    CalibrationSample,
    ServerPowerModel,
    estimate_network_energy,
    estimate_server_energy,
    fit_server_weights,
    read_calibration_samples,
    read_models,
    write_models,
)
from .report import (
    EquivalencyFactors,
    ReportDocument,
    TrendDelta,
    compute_equivalencies,
    compute_trend,
    factors_from_json,
    footprint_from_json,
    load_equivalency_factors,
    render_json,
    render_onepage,
)
from .synth import SynthFleet, generate_fleet, write_fleet
from .units import Period

__version__ = "0.1.0"
