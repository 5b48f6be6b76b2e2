"""Device energy estimation: calibrated server models and fixed network cost.

Server energy is a linear function of four usage counters (CPU utilization,
cache bytes moved, DRAM bytes accessed, disk bytes moved) plus an intercept
covering idle draw. Weights are calibrated per device model with exact
ordinary least squares against metered energy readings.

Network device energy uses a fixed per-byte cost: 6e-8 Wh for every byte
sent or received.
"""

from __future__ import annotations

from operator import mul
from pathlib import Path
from typing import NamedTuple

from .errors import PowerModelError, UnitError, warn
from .ingest import (
    NetworkUsage,
    ServerUsage,
    format_table,
    read_table,
)

__all__ = [
    "CalibrationSample",
    "ServerPowerModel",
    "fit_server_weights",
    "server_energy_wh",
    "estimate_server_energy",
    "estimate_network_energy",
    "split_shared_wh",
    "read_models",
    "format_models",
    "read_calibration_samples",
    "NETWORK_WH_PER_BYTE",
    "MIN_CALIBRATION_SAMPLES",
    "REGRESSOR_NAMES",
]

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


def _eliminate(a: list[list], steps: int) -> int:
    """Eliminate the first ``steps`` columns of the symmetric ``a`` in place, up
    to a pivot (LDLᵀ's) that is not positive: return its index, or ``steps``."""
    for k in range(steps):
        if a[k][k] <= 0:
            return k
        for j, row in enumerate(a):
            if j != k:
                factor = row[k] / a[k][k]
                a[j] = [x - factor * y for x, y in zip(row, a[k])]
    return steps


def fit_server_weights(samples: list[CalibrationSample] | tuple[CalibrationSample, ...],
                       device_model: str = "") -> ServerPowerModel:
    """Fit the five linear coefficients for one device model by least squares,
    exactly, so every machine gives the same bits: each float is a dyadic
    rational, so the normal equations are formed in integers and solved in
    fractions, and each weight is rounded once. Raises :class:`PowerModelError`
    below six samples, for a constant or collinear design (a ``singular
    calibration design`` message) and for a weight beyond float range.
    """
    # Imported here: fractions loads decimal, which no other command needs.
    from fractions import Fraction

    n = len(samples)
    if n < MIN_CALIBRATION_SAMPLES:
        raise PowerModelError(f"{n} calibration sample(s); at least "
                              f"{MIN_CALIBRATION_SAMPLES} required")
    # Each column as integers over its largest power-of-two denominator.
    ratios = [[x.as_integer_ratio() for x in values]
              for values in ([1.0] * n, *zip(*samples))]
    denominators = [max(q for _, q in column) for column in ratios]
    columns = [[p * (d // q) for p, q in column] for column, d in zip(ratios, denominators)]
    top = [max(map(abs, column)) for column in columns[:5]] + [1]
    zero_cols = [REGRESSOR_NAMES[i - 1] for i in range(1, 5) if top[i] == 0]
    if zero_cols:
        raise PowerModelError("singular calibration design: regressor(s) identically "
                              "zero across all samples: " + ", ".join(zero_cols))

    # [X y]ᵀ[X y], with the columns of X scaled to unit max-abs.
    dots = {(j, k): sum(map(mul, columns[j], columns[k]))
            for j in range(6) for k in range(j, 6)}
    gram = [[Fraction(dots[min(j, k), max(j, k)], top[j] * top[k]) for k in range(6)]
            for j in range(6)]
    trace = sum(gram[j][j] for j in range(5))
    shifted = [[g - trace / 10**20 if j == k else g for k, g in enumerate(row[:5])]
               for j, row in enumerate(gram[:5])]
    if (k := _eliminate(shifted, 5)) < 5:
        # v, with v[k] = 1, spans the near-null direction: vᵀ(gram - shift)v <= 0.
        v = [-row[k] / row[j] for j, row in enumerate(shifted[:k])] + [1]
        names = [name for name, c in zip(("intercept", *REGRESSOR_NAMES), v)
                 if abs(c) > max(map(abs, v)) / 10]
        raise PowerModelError(
            f"singular calibration design: collinear column(s): {', '.join(names)} "
            "(normalized Gram matrix has an eigenvalue <= 1e-20 x trace)")

    tss = gram[5][5] - gram[0][5] ** 2 / n
    _eliminate(gram, 5)  # leaves the residual yᵀy - γᵀXᵀy in gram[5][5]
    try:
        weights = [float(row[5] / row[j] * d / (t * denominators[5]))
                   for j, (row, d, t) in enumerate(zip(gram[:5], denominators, top))]
    except OverflowError:
        raise PowerModelError(f"weight beyond float range for {device_model!r}") from None
    adjusted_r2 = 1 - gram[5][5] / tss * (n - 1) / (n - 5) if tss else 1
    return ServerPowerModel(device_model, *weights, float(adjusted_r2))


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


def estimate_server_energy(model: ServerPowerModel, usage: ServerUsage) -> float:
    """A fitted model's estimate for one usage row, in Wh, never negative.

    A fit against noisy data can produce slightly negative estimates near
    idle; those are clamped to zero with a warning rather than propagated as
    unphysical energy.
    """
    value = server_energy_wh(model, usage)
    if value < 0.0:
        warn(__name__, "negative energy estimate %.6g Wh for device %s (model %s); "
             "clamping to 0", value, usage.device_id, model.device_model)
        return 0.0
    return value


def estimate_network_energy(row: NetworkUsage) -> float:
    """Energy for traffic through a network device at 6e-8 Wh per byte.

    Computed as ``6 * total / 100_000_000`` rather than ``6e-8 * total``: the
    two are the same real number, but with integer byte counts this is one
    int/int true division, which Python rounds correctly at any size, whereas
    multiplying by the rounded literal 6e-8 introduces one ulp of error.
    """
    return 6 * (row.bytes_sent + row.bytes_received) / 100_000_000


def split_shared_wh(total: float, tenant_direct: float, all_tenants_direct: float,
                    context: str = "") -> float:
    """A tenant's slice of a shared energy total, by direct-energy ratio.

    With no shared energy the answer is zero regardless of the denominator;
    shared energy with a zero denominator is unallocatable and raises a
    :class:`UnitError` that names ``context``, if given.
    """
    if total == 0.0:
        return 0.0
    if all_tenants_direct == 0.0:
        detail = f" in {context}" if context else ""
        raise UnitError(f"shared energy cannot be allocated{detail}: "
                        "total direct tenant energy is zero")
    return total * tenant_direct / all_tenants_direct


# ---------------------------------------------------------------------------
# Model and calibration file I/O
# ---------------------------------------------------------------------------

MODELS_FILE_NAME = "models.csv"  # what synth names the models file it writes
_MODEL_COLUMNS = ("device_model", "intercept", "w_cpu", "w_cache", "w_dram",
                  "w_disk", "adjusted_r2")


def format_models(models: dict[str, ServerPowerModel],
                  name: str = MODELS_FILE_NAME) -> str:
    """The text of a models file, one row per model, sorted by name; a value
    the format refuses raises :class:`MalformedRow` naming file ``name``."""
    return format_table(name, _MODEL_COLUMNS, (
        [m.device_model, repr(m.intercept), repr(m.w_cpu), repr(m.w_cache),
         repr(m.w_dram), repr(m.w_disk), repr(m.adjusted_r2)]
        for _, m in sorted(models.items())))


def read_models(path: Path | str) -> dict[str, ServerPowerModel]:
    """Read a fitted-models CSV keyed by device model."""
    out: dict[str, ServerPowerModel] = {}
    for row in read_table(path, _MODEL_COLUMNS).rows():
        name = row.text("device_model")
        if name in out:
            raise row.error(f"duplicate device model {name!r}")
        r2 = row.number("adjusted_r2")
        if r2 > 1.0:
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
            "disk_moved", "measured_energy_wh")).rows():
        out.setdefault(row.text("device_model"), []).append(CalibrationSample(
            cpu_utilization=row.share("cpu_utilization"),
            cache_moved=row.nonneg("cache_moved"),
            dram_accessed=row.nonneg("dram_accessed"),
            disk_moved=row.nonneg("disk_moved"),
            measured_energy=row.nonneg("measured_energy_wh"),
        ))
    return out
