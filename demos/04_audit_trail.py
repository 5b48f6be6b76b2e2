"""
The audit trail: recompute, compare, and catch tampering
========================================================

Reports are only trustworthy if anyone holding the raw inputs can verify
them. This walkthrough drives the command-line interface end to end:
generate a fleet, compute reports, audit one successfully, then flip a
single number in the report and watch the audit pinpoint it.

Exit codes: 0 ok, 1 invalid input, 2 a power model cannot be fitted,
3 audit mismatch.
"""

import json
import shutil
from pathlib import Path

from carbonalloc.cli import main

root = Path(__file__).parent / "output" / "audit_demo"
shutil.rmtree(root, ignore_errors=True)
root.mkdir(parents=True)

fleet = root / "fleet"
out = root / "out"
factors = root / "equivalencies.json"
factors.write_text(json.dumps({
    "flight_ams_nyc_g": 500000,
    "car_km_g": 250,
    "smartphone_charge_g": 8.22,
    "source_note": "sample factors for the demo",
}, indent=2), encoding="utf-8")

print("$ carbonalloc synth --seed 42 --tenants 5 --dcs 3 --out-dir fleet")
code = main(["synth", "--seed", "42", "--tenants", "5", "--dcs", "3",
             "--out-dir", str(fleet)])
print(f"-> exit {code}\n")

print("$ carbonalloc compute --period 2025-06 ...")
code = main(["compute", "--period", "2025-06",
             "--input-dir", str(fleet),
             "--models", str(fleet / "models.csv"),
             "--equivalencies", str(factors),
             "--out-dir", str(out)])
print(f"-> exit {code}\n")

report = out / "reports" / "TENANT_01" / "2025-06.json"
audit_args = ["audit", "--report", str(report),
              "--input-dir", str(fleet),
              "--models", str(fleet / "models.csv"),
              "--history-dir", str(out / "history")]

print("$ carbonalloc audit --report reports/TENANT_01/2025-06.json ...")
code = main(audit_args)
print(f"-> exit {code}\n")

# Now the tampering. One numeric field, a 0.1% nudge; whitespace and key
# order are irrelevant to the audit because comparison happens on the
# canonical rendering.
doc = json.loads(report.read_text(encoding="utf-8"))
doc["summary"]["grossEmissions"] *= 1.001
report.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

print("after nudging summary.grossEmissions by 0.1%:")
print("$ carbonalloc audit --report reports/TENANT_01/2025-06.json ...")
code = main(audit_args)
print(f"-> exit {code}")
