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

Each module's ``__all__`` is the one list of its public names, and every
name in it is re-exported here; a stale entry fails this import.
"""

from .allocation import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .history import *  # noqa: F401,F403
from .ingest import *  # noqa: F401,F403
from .power import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .units import *  # noqa: F401,F403

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``synth`` is loaded on first use, so that a run of any other command
    # does not pay for it at start-up.
    if name in ("SynthFleet", "generate_fleet", "write_fleet"):
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
