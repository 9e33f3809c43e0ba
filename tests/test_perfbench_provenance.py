"""The flow benchmark's provenance record still resolves.

``perfbench/gate.py`` is frozen with the benchmark and reports
``repro.kernels.get_backend().name`` in every run's provenance line.
This test keeps that import alive: deleting the ``repro.kernels`` stub
would crash every benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_provenance_reports_a_kernel_backend(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_gate", REPO / "perfbench" / "gate.py"
    )
    gate = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, gate)
    spec.loader.exec_module(gate)
    record = gate.provenance(str(REPO), 0)
    assert isinstance(record["kernel_backend"], str)
    assert record["kernel_backend"]
    assert record["seed"] == 0
