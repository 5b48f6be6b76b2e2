"""
Rendering tenant reports: canonical JSON and the one-page HTML
==============================================================

Runs the pipeline on a synthetic fleet for two consecutive months so the
second month's reports carry a trend section, then writes both report
formats under demos/output/.
"""

import dataclasses
import json
import shutil
from pathlib import Path

from carbonalloc import (
    EquivalencyFactors,
    HistoryStore,
    Period,
    compute_footprints,
    footprint_from_json,
    generate_fleet,
    render_json,
    render_onepage,
)

out_root = Path(__file__).parent / "output" / "reports_demo"
shutil.rmtree(out_root, ignore_errors=True)
out_root.mkdir(parents=True)

# Equivalency factors give readers a sense of scale. These ballpark public
# figures are configuration, not constants baked into the library.
factors = EquivalencyFactors(
    flight_ams_nyc=500000.0,
    car_km=250.0,
    smartphone_charge=8.22,
    source_note="sample factors; see configs/equivalencies.sample.json",
)

fleet = generate_fleet(seed=42, n_tenants=4, n_dcs=2)
history = HistoryStore(out_root / "history")

# Month one: same fleet, May. Saving each JSON report into the history
# store is what makes June's trend section possible.
may = fleet.raw._replace(period=Period.parse("2025-05"))
for fp in compute_footprints(may, fleet.models):
    history.save(fp.tenant_id, fp.period, render_json(fp, factors).content)

# Month two: June, with one tenant's traffic doubled so its trend badge
# actually moves.
double_for = "TENANT_02"
june_network = tuple(
    row._replace(bytes_sent=row.bytes_sent * 2,
                 bytes_received=row.bytes_received * 2)
    if row.tenant_id == double_for else row
    for row in fleet.raw.network
)
june = fleet.raw._replace(period=Period.parse("2025-06"),
                          network=june_network)

for fp in compute_footprints(june, fleet.models):
    # The engine reads no files; the trend comes from the history store.
    fp = dataclasses.replace(
        fp, history=history.prior_entries(fp.tenant_id, fp.period))
    tenant_dir = out_root / fp.tenant_id
    tenant_dir.mkdir()
    json_doc = render_json(fp, factors)
    (tenant_dir / "2025-06.json").write_bytes(json_doc.content)
    (tenant_dir / "2025-06.html").write_bytes(render_onepage(fp, factors).content)

    # The JSON is canonical: parsing and re-rendering reproduces it byte
    # for byte, which is what makes third-party audits cheap.
    assert render_json(footprint_from_json(json_doc.content), factors).content \
        == json_doc.content

    doc = json.loads(json_doc.content)
    prior = doc["summary"]["history"][0]
    print(f"{fp.tenant_id}: gross {doc['summary']['grossEmissions']:.0f} g, "
          f"vs {prior['period']} change {prior['pctChange']:+.1f}%")

print(f"\nwrote JSON + HTML pairs under {out_root}")
print("open any .html file; each report is one self-contained A4 page")
