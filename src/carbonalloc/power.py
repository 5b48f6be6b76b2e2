"""Device energy estimation: calibrated server models and fixed network cost.

Server energy is a linear function of four usage counters (CPU utilization,
cache bytes moved, DRAM bytes accessed, disk bytes moved) plus an intercept
covering idle draw. Weights are calibrated per device model with ordinary
least squares against metered energy readings.

Network device energy uses a fixed per-byte cost: 6e-8 Wh for every byte
sent or received.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import InsufficientSamples, SingularDesign, ZeroDenominator
from .ingest import (
    NetworkUsage,
    ServerUsage,
    SharedDevice,
    read_table,
    write_table,
)
from .units import check_energy

__all__ = [
    "CalibrationSample",
    "ServerPowerModel",
    "fit_server_weights",
    "server_energy_wh",
    "clamped_server_energy_wh",
    "estimate_server_energy",
    "network_energy_wh",
    "estimate_network_energy",
    "shared_energy_total",
    "split_shared_wh",
    "read_models",
    "write_models",
    "read_calibration_samples",
    "NETWORK_WH_PER_BYTE",
    "MIN_CALIBRATION_SAMPLES",
    "REGRESSOR_NAMES",
]

log = logging.getLogger(__name__)

# Nominal energy cost per byte crossing a network device, in Wh.
NETWORK_WH_PER_BYTE = 6e-8

# Four regressors plus an intercept need at least one residual degree of
# freedom to report adjusted R-squared, hence six samples minimum.
MIN_CALIBRATION_SAMPLES = 6

REGRESSOR_NAMES = ("cpu_utilization", "cache_moved", "dram_accessed", "disk_moved")


class CalibrationSample(NamedTuple):
    """One metered observation pairing usage counters with energy drawn."""

    cpu_utilization: float
    cache_moved: float
    dram_accessed: float
    disk_moved: float
    measured_energy: float


class ServerPowerModel(NamedTuple):
    """Fitted per-device-model energy weights.

    :func:`server_energy_wh` applies the weights in a fixed term order so a
    given model and usage row always reproduce the identical float result.
    """

    device_model: str
    intercept: float
    w_cpu: float
    w_cache: float
    w_dram: float
    w_disk: float
    adjusted_r2: float


def fit_server_weights(samples: list[CalibrationSample] | tuple[CalibrationSample, ...],
                       device_model: str = "") -> ServerPowerModel:
    """Fit the five linear coefficients for one device model with OLS.

    Columns are scaled to unit max-abs before solving; byte counters sit ten
    orders of magnitude above CPU utilization and would otherwise dominate
    the normal equations' conditioning.

    Raises :class:`InsufficientSamples` below six samples and
    :class:`SingularDesign` when a regressor is constant or collinear.
    """
    # Only calibration needs numpy; importing it here keeps it out of start-up.
    import numpy as np

    n = len(samples)
    if n < MIN_CALIBRATION_SAMPLES:
        raise InsufficientSamples(n, MIN_CALIBRATION_SAMPLES)

    y = np.array([s.measured_energy for s in samples], dtype=np.float64)
    design = np.column_stack([
        np.ones(n),
        np.array([s.cpu_utilization for s in samples], dtype=np.float64),
        np.array([s.cache_moved for s in samples], dtype=np.float64),
        np.array([s.dram_accessed for s in samples], dtype=np.float64),
        np.array([s.disk_moved for s in samples], dtype=np.float64),
    ])

    scales = np.max(np.abs(design), axis=0)
    zero_cols = [REGRESSOR_NAMES[i - 1] for i in range(1, 5) if scales[i] == 0.0]
    if zero_cols:
        raise SingularDesign(
            "regressor(s) identically zero across all samples: " + ", ".join(zero_cols))
    normalized = design / scales

    singular_values = np.linalg.svd(normalized, compute_uv=False)
    if singular_values[-1] <= 1e-10 * singular_values[0]:
        _, _, vt = np.linalg.svd(normalized)
        null_vec = np.abs(vt[-1])
        involved = [
            ("intercept", *REGRESSOR_NAMES)[i]
            for i in range(5) if null_vec[i] > 0.1 * null_vec.max()
        ]
        raise SingularDesign(
            "collinear column(s): " + ", ".join(involved)
            + f" (singular value ratio {singular_values[-1] / singular_values[0]:.2e})")

    coef_scaled, _, _, _ = np.linalg.lstsq(normalized, y, rcond=None)
    coef = coef_scaled / scales

    fitted = design @ coef
    ssr = float(np.sum((y - fitted) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - ssr / tss
    p = len(REGRESSOR_NAMES)
    adjusted_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)

    return ServerPowerModel(
        device_model=device_model,
        intercept=float(coef[0]),
        w_cpu=float(coef[1]),
        w_cache=float(coef[2]),
        w_dram=float(coef[3]),
        w_disk=float(coef[4]),
        adjusted_r2=adjusted_r2,
    )


def server_energy_wh(model: ServerPowerModel, usage: ServerUsage) -> float:
    """A fitted model's raw estimate for one usage row, in Wh, unclamped.

    Terms are summed left to right in a fixed order (intercept, CPU, cache,
    DRAM, disk) so results are bit-for-bit reproducible.
    """
    return (model.intercept
            + model.w_cpu * usage.cpu_utilization
            + model.w_cache * usage.cache_moved
            + model.w_dram * usage.dram_accessed
            + model.w_disk * usage.disk_moved)


def clamped_server_energy_wh(model: ServerPowerModel, usage: ServerUsage) -> float:
    """A fitted model's estimate for one usage row, in Wh, never negative.

    A fit against noisy data can produce slightly negative estimates near
    idle; those are clamped to zero with a warning rather than propagated as
    unphysical energy.
    """
    value = server_energy_wh(model, usage)
    if value < 0.0:
        log.warning("negative energy estimate %.6g Wh for device %s (model %s); "
                    "clamping to 0", value, usage.device_id, model.device_model)
        return 0.0
    return value


def estimate_server_energy(model: ServerPowerModel, usage: ServerUsage) -> float:
    """:func:`clamped_server_energy_wh`, checked as an energy."""
    return check_energy(clamped_server_energy_wh(model, usage))


def network_energy_wh(row: NetworkUsage) -> float:
    """Energy for traffic through a network device at 6e-8 Wh per byte.

    Computed as ``6 * total / 100_000_000`` rather than ``6e-8 * total``: the
    two are the same real number, but with integer byte counts this is one
    int/int true division, which Python rounds correctly at any size, whereas
    multiplying by the rounded literal 6e-8 introduces one ulp of error.
    """
    return 6 * (row.bytes_sent + row.bytes_received) / 100_000_000


def estimate_network_energy(row: NetworkUsage) -> float:
    """:func:`network_energy_wh`, checked as an energy."""
    return check_energy(network_energy_wh(row))


def shared_energy_total(devices: tuple[SharedDevice, ...] | list[SharedDevice]) -> float:
    """Sum metered shared-device energies in device-id order.

    The order is fixed so reruns over the same inputs sum in the same
    sequence and reproduce identical floats.
    """
    total = 0.0
    for dev in sorted(devices, key=lambda d: d.device_id):
        total += dev.energy
    return check_energy(total)


def split_shared_wh(total: float, tenant_direct: float, all_tenants_direct: float,
                    context: str = "") -> float:
    """A tenant's slice of a shared energy total, by direct-energy ratio.

    With no shared energy the answer is zero regardless of the denominator;
    shared energy with a zero denominator is unallocatable and raises
    :class:`ZeroDenominator`.
    """
    if total == 0.0:
        return 0.0
    if all_tenants_direct == 0.0:
        raise ZeroDenominator(context)
    return total * tenant_direct / all_tenants_direct


# ---------------------------------------------------------------------------
# Model and calibration file I/O
# ---------------------------------------------------------------------------

_MODEL_COLUMNS = ("device_model", "intercept", "w_cpu", "w_cache", "w_dram",
                  "w_disk", "adjusted_r2")


def _models_table(models: dict[str, ServerPowerModel]
                  ) -> tuple[tuple[str, ...], Iterator[list[str]]]:
    """The header and rows of a models file, one row per model, by name."""
    return _MODEL_COLUMNS, (
        [m.device_model, repr(m.intercept), repr(m.w_cpu), repr(m.w_cache),
         repr(m.w_dram), repr(m.w_disk), repr(m.adjusted_r2)]
        for _, m in sorted(models.items()))


def write_models(path: Path | str, models: dict[str, ServerPowerModel]) -> None:
    """Write fitted models as CSV, one row per device model, sorted by name."""
    write_table(path, *_models_table(models))


def read_models(path: Path | str) -> dict[str, ServerPowerModel]:
    """Read a fitted-models CSV keyed by device model."""
    out: dict[str, ServerPowerModel] = {}
    for row in read_table(path, _MODEL_COLUMNS):
        name = row.text("device_model")
        if name in out:
            raise row.error(f"duplicate device model {name!r}")
        r2 = row.number("adjusted_r2")
        if r2 > 1.0 or math.isnan(r2):
            raise row.error(f"adjusted_r2 must be <= 1, got {r2!r}")
        out[name] = ServerPowerModel(
            device_model=name,
            intercept=row.number("intercept"),
            w_cpu=row.number("w_cpu"),
            w_cache=row.number("w_cache"),
            w_dram=row.number("w_dram"),
            w_disk=row.number("w_disk"),
            adjusted_r2=r2,
        )
    return out


def read_calibration_samples(path: Path | str) -> dict[str, list[CalibrationSample]]:
    """Read calibration observations grouped by device model.

    Expected columns: device_model, cpu_utilization, cache_moved,
    dram_accessed, disk_moved, measured_energy_wh.
    """
    out: dict[str, list[CalibrationSample]] = {}
    for row in read_table(path, (
            "device_model", "cpu_utilization", "cache_moved", "dram_accessed",
            "disk_moved", "measured_energy_wh")):
        out.setdefault(row.text("device_model"), []).append(CalibrationSample(
            cpu_utilization=row.number("cpu_utilization"),
            cache_moved=row.nonneg("cache_moved"),
            dram_accessed=row.nonneg("dram_accessed"),
            disk_moved=row.nonneg("disk_moved"),
            measured_energy=row.nonneg("measured_energy_wh"),
        ))
    return out
