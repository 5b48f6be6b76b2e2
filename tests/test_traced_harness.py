"""The benchmark's trace harness still finds every engine function it wraps.

``perfbench/traced.py`` patches the public function of each layer by
identity wherever the package binds it. A renamed or unbound function would
make ``--trace 1`` fail or silently report zero for its layer, so this test
loads the harness from its path and checks that every wrapped function was
found and patched.
"""

import importlib.util
from pathlib import Path

from carbonalloc import allocation, cli, history, ingest, power, report

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"

WRAPPED = (
    ingest.load_input_dir,
    power.read_models,
    power.estimate_server_energy,
    power.estimate_network_energy,
    allocation.compute_scope2,
    allocation.compute_responsibility_ratios,
    allocation.compute_footprints,
    allocation.conservation_audit,
    report.render_json,
    report.render_onepage,
    cli.main,
)


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_wrapped_function():
    traced = load_traced()
    store_methods = {attr: getattr(history.HistoryStore, attr)
                     for attr in ("prior_entries", "save", "load_entry")}
    patched = traced.install(traced.Tracer())
    try:
        originals = [original for _, _, original in patched]
        for fn in WRAPPED:
            assert any(original is fn for original in originals), fn.__qualname__
        for attr, method in store_methods.items():
            assert any(owner is history.HistoryStore and name == attr
                       and original is method for owner, name, original in patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        traced.uninstall(patched)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
