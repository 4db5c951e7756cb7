"""The `garnet-bench-report` aggregator (`repro.tools.bench_report`)."""

from __future__ import annotations

import json

import pytest

from repro.tools.bench_report import flatten, main, render_report


@pytest.fixture
def bench_dir(tmp_path):
    (tmp_path / "BENCH_e18_hotpath.json").write_text(json.dumps({
        "experiment": "E18 hot-path overhaul",
        "mode": "full",
        "codec": {"encode_speedup": 7.5},
        "e2e_dense": {"listeners": 1216, "sim_s_per_wall_s": 0.6},
    }))
    (tmp_path / "BENCH_e19_cluster.json").write_text(json.dumps({
        "experiment": "E19 clustered federation",
        "scaling": {"brokers": {"2": {"speedup_vs_1": 2.0}}},
        "failover": {"delivery_ratios": [1.0, 1.0], "deterministic": True},
    }))
    return tmp_path


class TestFlatten:
    def test_nested_dicts_become_dotted_names(self):
        pairs = dict(flatten({"a": {"b": {"c": 1}}, "d": 2.5}))
        assert pairs == {"a.b.c": 1, "d": 2.5}

    def test_scalar_lists_join_and_object_lists_index(self):
        pairs = dict(flatten({"xs": [1, 2], "os": [{"k": 3}]}))
        assert pairs == {"xs": "1, 2", "os[0].k": 3}

    def test_null_leaves_are_skipped(self):
        assert dict(flatten({"a": None, "b": 1})) == {"b": 1}


class TestReport:
    def test_sections_tables_and_headline_metrics(self, bench_dir):
        files = sorted(bench_dir.glob("BENCH_*.json"))
        report = render_report(files)
        assert "## E18 hot-path overhaul" in report
        assert "## E19 clustered federation" in report
        assert "`BENCH_e18_hotpath.json` (mode: full)" in report
        assert "| e2e_dense.listeners | 1,216 |" in report
        # Speedup ratios are the gated headline numbers: emphasized.
        assert "| **codec.encode_speedup** | **7.5** |" in report
        assert "| **scaling.brokers.2.speedup_vs_1** | **2** |" in report
        assert "| failover.deterministic | yes |" in report

    def test_main_writes_output_file(self, bench_dir, capsys):
        out = bench_dir / "trajectory.md"
        assert main(["--root", str(bench_dir), "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Performance trajectory")
        assert "E18 hot-path overhaul" in text
        assert "wrote" in capsys.readouterr().out

    def test_main_with_explicit_files(self, bench_dir, capsys):
        target = bench_dir / "BENCH_e18_hotpath.json"
        assert main([str(target)]) == 0
        stdout = capsys.readouterr().out
        assert "E18 hot-path overhaul" in stdout
        assert "E19" not in stdout

    def test_main_errors_when_nothing_found(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_malformed_json_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="BENCH_bad.json"):
            render_report([bad])
