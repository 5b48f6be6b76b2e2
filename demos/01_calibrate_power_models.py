"""
Calibrating server power models from benchmark samples
=======================================================

Server energy is modeled as a linear function of four usage counters:
CPU utilization, cache bytes moved, DRAM bytes accessed, and disk bytes
moved. This walkthrough generates benchmark samples from a known ground
truth, fits the model, and shows that the weights come back.
"""

import random

from carbonalloc import CalibrationSample, fit_server_weights

# Ground truth for a fictitious device model. The weights span ten orders
# of magnitude (Wh per utilization point vs Wh per byte), which is exactly
# the regime the fitter's column normalization exists for.
INTERCEPT = 10.0     # idle draw, Wh
W_CPU = 500.0        # Wh per utilization point
W_CACHE = 1e-6       # Wh per cache byte
W_DRAM = 2e-9        # Wh per DRAM byte
W_DISK = 5e-10       # Wh per disk byte

rng = random.Random(7)
samples = []
for _ in range(50):
    u = rng.uniform(0.0, 1.0)
    cache = rng.uniform(0.0, 5e7)
    dram = rng.uniform(0.0, 1e10)
    disk = rng.uniform(0.0, 5e10)
    energy = INTERCEPT + W_CPU * u + W_CACHE * cache + W_DRAM * dram + W_DISK * disk
    samples.append(CalibrationSample(u, cache, dram, disk, energy))

model = fit_server_weights(samples, device_model="ABC_987")

print("fitted ABC_987 from 50 noiseless samples")
print(f"  intercept {model.intercept:.9f}   (true {INTERCEPT})")
print(f"  w_cpu     {model.w_cpu:.9f}   (true {W_CPU})")
print(f"  w_cache   {model.w_cache:.3e}   (true {W_CACHE:.3e})")
print(f"  w_dram    {model.w_dram:.3e}   (true {W_DRAM:.3e})")
print(f"  w_disk    {model.w_disk:.3e}   (true {W_DISK:.3e})")
print(f"  adjusted R^2 = {model.adjusted_r2}")

# With measurement noise the fit degrades gracefully and the adjusted R^2
# says so. Same ground truth, 200 samples, 50 Wh of Gaussian noise:
noisy = []
rng = random.Random(8)
for _ in range(200):
    u = rng.uniform(0.0, 1.0)
    cache = rng.uniform(0.0, 5e7)
    dram = rng.uniform(0.0, 1e10)
    disk = rng.uniform(0.0, 5e10)
    energy = INTERCEPT + W_CPU * u + W_CACHE * cache + W_DRAM * dram + W_DISK * disk
    noisy.append(CalibrationSample(u, cache, dram, disk,
                                   max(energy + rng.gauss(0, 50), 0.0)))

noisy_model = fit_server_weights(noisy, device_model="ABC_987")
print("\nwith 50 Wh measurement noise (200 samples)")
print(f"  w_cpu     {noisy_model.w_cpu:.3f}")
print(f"  adjusted R^2 = {noisy_model.adjusted_r2:.4f}")

# A benchmark sweep that never varies one counter cannot identify its
# weight; the fitter refuses instead of returning garbage.
from carbonalloc.errors import SingularDesign

degenerate = [CalibrationSample(0.5, s.cache_moved, s.dram_accessed,
                                s.disk_moved, s.measured_energy)
              for s in samples]
try:
    fit_server_weights(degenerate, device_model="ABC_987")
except SingularDesign as exc:
    print(f"\nconstant-CPU sweep rejected: {exc}")
