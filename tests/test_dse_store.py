"""Run-database ingestion (idempotent) and query API, on the golden set."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse.store import RunDB

GOLDEN = Path(__file__).parent / "golden" / "dse"


def load_golden(db: RunDB) -> None:
    """Ingest every golden source file into ``db``."""
    for path in sorted(GOLDEN.glob("*.json")) + sorted(GOLDEN.glob("*.jsonl")):
        db.ingest_path(path)


@pytest.fixture
def db():
    with RunDB(":memory:") as handle:
        load_golden(handle)
        yield handle


class TestIngestion:
    def test_counts(self, db):
        summary = db.summary()
        assert summary["sweeps"] == ["golden"]
        counts = summary["counts"]
        assert counts["units"] == 4
        assert counts["runs"] == 4
        assert counts["rounds"] == 8  # 2 rounds x 4 units
        assert counts["knobs"] == 8  # 2 knobs x 4 units
        assert counts["bench_payloads"] == 2
        assert counts["supervisor_events"] > 0

    def test_reingest_is_a_noop(self, db):
        before = db.dump()
        load_golden(db)
        assert db.dump() == before
        # same content from a different path is also a repeat
        payload = json.loads(
            (GOLDEN / "golden__p000__des_perf_1.json").read_text())
        assert db.ingest_unit_payload(payload, source="elsewhere") is False
        assert db.dump() == before

    def test_unknown_suffix_rejected(self, db, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="suffix"):
            db.ingest_path(path)

    def test_manifest_recorded_without_metric_rows(self, db, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"spec": {}, "units": []}))
        assert db.ingest_bench_json(manifest) is True
        assert db.ingest_bench_json(manifest) is False
        assert "manifest.json" not in db.bench_files()


class TestQueries:
    def test_best_by_minimizes_and_carries_knobs(self, db):
        best = db.best_by("#DRVs", limit=2)
        assert [b["value"] for b in best] == [7.0, 9.0]
        assert best[0]["design"] == "fft_1"
        assert best[0]["knobs"]["inflation.alpha"] == 0.6
        worst = db.best_by("#DRVs", minimize=False, limit=1)
        assert worst[0]["value"] == 14.0

    def test_best_by_placer_filter(self, db):
        assert db.best_by("#DRVs", placer="nope") == []
        assert len(db.best_by("#DRVs", placer="Ours")) == 4

    def test_trend_groups_by_knob_value(self, db):
        trend = db.trend("inflation.alpha", "#DRVs")
        assert [(t["value"], t["mean"], t["n"]) for t in trend] == [
            (0.2, (14.0 + 9.0) / 2, 2), (0.6, (11.0 + 7.0) / 2, 2)]

    def test_compare_reports_deltas(self, db):
        out = db.compare("golden:p000:des_perf_1:Ours",
                         "golden:p001:des_perf_1:Ours")
        assert out["metrics"]["#DRVs"] == {"a": 14.0, "b": 11.0, "delta": -3.0}
        with pytest.raises(KeyError):
            db.compare("golden:p000:des_perf_1:Ours", "missing:run")

    def test_unit_rounds_ordered(self, db):
        rounds = db.unit_rounds("golden:p000:des_perf_1")
        assert [r["round"] for r in rounds] == [0, 1]
        assert rounds[1]["mean_congestion"] == 0.22

    def test_retired_round_field_is_ignored(self, db):
        # the golden streams predate the retirement of router_fallbacks
        payload = json.loads(
            (GOLDEN / "golden__p000__des_perf_1.json").read_text())
        assert any("router_fallbacks" in e for e in payload["events"]
                   if e.get("kind") == "rd.round")
        rounds = db.unit_rounds("golden:p000:des_perf_1")
        assert rounds and all("router_fallbacks" not in r for r in rounds)

    def test_bench_history(self, db):
        assert db.bench_files() == ["BENCH_mini_0.json", "BENCH_mini_1.json"]
        series = db.bench_series("wa", "speedup")
        assert series == {"n1000": [("BENCH_mini_0.json", 4.0),
                                    ("BENCH_mini_1.json", 5.0)]}
        assert ("raster", "fastnp_ms") in db.bench_families()

    def test_names(self, db):
        assert db.knob_names() == ["inflation.alpha", "rd.max_rounds"]
        assert "#DRVs" in db.metric_names()


class TestBenchShapes:
    def test_bare_table_list(self, tmp_path):
        path = tmp_path / "table1.json"
        path.write_text(json.dumps([
            {"design": "d", "placer": "Ours", "metrics": {"DRWL": 1.0}}]))
        with RunDB(":memory:") as db:
            assert db.ingest_bench_json(path) is True
            assert db.bench_series("table", "DRWL") == {
                "d/Ours": [("table1.json", 1.0)]}

    def test_sweep_payload_rows(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(json.dumps({
            "kind": "table1", "jobs": 2,
            "rows": [{"design": "d", "placer": "Ours",
                      "metrics": {"#DRVs": 3.0}}],
            "supervisor": {"events": []}}))
        with RunDB(":memory:") as db:
            assert db.ingest_bench_json(path) is True
            assert db.bench_series("table", "#DRVs") == {
                "d/Ours": [("BENCH_sweep.json", 3.0)]}

    def test_spectral_payload(self, tmp_path):
        path = tmp_path / "BENCH_spectral.json"
        path.write_text(json.dumps({
            "host": "h", "spectral": {"per_dim": [
                {"dim": 64, "density_speedup": 2.0}]}}))
        with RunDB(":memory:") as db:
            db.ingest_bench_json(path)
            assert db.bench_series("spectral", "density_speedup") == {
                "dim64": [("BENCH_spectral.json", 2.0)]}

    def test_route_payload(self, tmp_path):
        path = tmp_path / "BENCH_route.json"
        path.write_text(json.dumps({
            "bench": "route",
            "designs": {"d": {"rd_profile": {"total_s": 4.5}, "flat": 1.0}}}))
        with RunDB(":memory:") as db:
            db.ingest_bench_json(path)
            assert db.bench_series("route", "total_s") == {
                "d/rd_profile": [("BENCH_route.json", 4.5)]}
            assert db.bench_series("route", "flat") == {
                "d": [("BENCH_route.json", 1.0)]}
