"""Evaluation harness: Table II data, runners, figure rendering."""

import pytest

from repro.eval import (
    MCNC_TABLE,
    benchmark_names,
    circuit,
    evaluate_circuit,
    format_table,
    geomean,
    render_fig4,
    render_fig5,
    render_table2,
    run_fig4,
    run_fig5,
    to_csv,
)


class TestTable2Data:
    def test_twenty_circuits(self):
        assert len(MCNC_TABLE) == 20

    def test_paper_rows_exact(self):
        # Spot checks against Table II.
        alu4 = circuit("alu4")
        assert (alu4.size, alu4.mcw_paper, alu4.lbs) == (35, 9, 1173)
        clma = circuit("clma")
        assert (clma.size, clma.mcw_paper, clma.lbs) == (79, 15, 6226)
        ex1010 = circuit("ex1010")
        assert (ex1010.size, ex1010.mcw_paper, ex1010.lbs) == (56, 16, 3093)

    def test_majority_over_thousand_lbs(self):
        # "Of these 20 benchmarks, 13 of them contain over a thousand LBs."
        assert sum(1 for c in MCNC_TABLE if c.lbs > 1000) == 13

    def test_lbs_fit_grid(self):
        for c in MCNC_TABLE:
            assert c.lbs <= c.size * c.size

    def test_io_clamping(self):
        bigkey = circuit("bigkey")
        n_in, n_out = bigkey.clamped_io()
        assert n_in + n_out <= bigkey.pad_capacity
        alu4 = circuit("alu4")
        assert alu4.clamped_io() == (14, 8)  # fits, unchanged

    def test_locality_ordering(self):
        # Congested circuits (high MCW) get lower locality.
        assert circuit("ex1010").locality < circuit("des").locality

    def test_spec_counts(self):
        spec = circuit("tseng").spec()
        assert spec.n_luts == 799
        assert spec.n_latches == 385

    def test_scaled_spec(self):
        spec = circuit("alu4").spec(scale=0.1)
        assert spec.n_luts == 117

    def test_subsets(self):
        assert set(benchmark_names("small")) < set(benchmark_names("medium"))
        assert len(benchmark_names("full")) == 20
        with pytest.raises(Exception):
            benchmark_names("gigantic")

    def test_unknown_circuit(self):
        with pytest.raises(Exception):
            circuit("mystery99")


class TestRunners:
    @pytest.mark.integration
    def test_evaluate_circuit_caches(self, tmp_path):
        row = evaluate_circuit(
            "ex5p", tmp_path, channel_width=8, clusters=(1, 2), scale=0.08,
        )
        assert row["raw_bits"] > row["clusters"]["1"]["vbs_bits"]
        # Second call must come from cache (no new flow).
        again = evaluate_circuit(
            "ex5p", tmp_path, channel_width=8, clusters=(1, 2), scale=0.08,
        )
        assert again["clusters"] == row["clusters"]

    @pytest.mark.integration
    def test_fig_runners(self, tmp_path):
        rows = run_fig4(["ex5p"], tmp_path, channel_width=8, scale=0.08)
        assert rows[0]["ratio"] < 1.0
        series = run_fig5(["ex5p"], tmp_path, channel_width=8,
                          clusters=(1, 2), scale=0.08)
        assert [s["cluster"] for s in series] == [1, 2]

    @pytest.mark.integration
    def test_rows_carry_codec_counts(self, tmp_path):
        row = evaluate_circuit(
            "ex5p", tmp_path, channel_width=8, clusters=(1,), scale=0.08,
        )
        counts = row["clusters"]["1"]["codec_counts"]
        assert counts and sum(counts.values()) == (
            row["clusters"]["1"]["clusters_listed"]
        )
        fig4 = run_fig4(["ex5p"], tmp_path, channel_width=8, scale=0.08)
        # The flattened per-codec record counts ride along in fig4 rows
        # (and therefore in fig4.csv).
        flat = fig4[0]["codec_counts"]
        assert flat == ";".join(
            f"{name}={counts[name]}" for name in sorted(counts)
        )

    @pytest.mark.integration
    def test_rows_carry_auto_generation_columns(self, tmp_path):
        """Every cluster cell records the cost-driven picker at both
        codec generations, and VERSION 4 never regresses VERSION 3."""
        row = evaluate_circuit(
            "ex5p", tmp_path, channel_width=8, clusters=(1,), scale=0.08,
        )
        cell = row["clusters"]["1"]
        assert cell["auto_v4_bits"] <= cell["auto_v3_bits"]
        assert cell["auto_v4_version"] in (2, 3, 4)
        fig4 = run_fig4(["ex5p"], tmp_path, channel_width=8, scale=0.08)
        assert fig4[0]["auto_v3_bits"] == cell["auto_v3_bits"]
        assert fig4[0]["auto_v4_bits"] == cell["auto_v4_bits"]
        # The exhaustive trial count rides along too — the denominator
        # of the predictor's trial-reduction claims.
        assert cell["auto_v4_family_trials"] > 0
        assert fig4[0]["auto_v4_family_trials"] == (
            cell["auto_v4_family_trials"]
        )
        counts = cell["auto_v4_codec_counts"]
        assert fig4[0]["auto_v4_codec_counts"] == ";".join(
            f"{name}={counts[name]}" for name in sorted(counts)
        )

    @pytest.mark.integration
    def test_v4_ratio_summary_improves_on_replicated_corpus(self, tmp_path):
        """The synthetic replicated-datapath extra engages the VERSION 4
        family: the corpus total strictly improves over the best
        VERSION 3 pick (the acceptance gate of the V4 codecs)."""
        from repro.eval import EVAL_EXTRAS, v4_ratio_summary

        assert "dpath" in EVAL_EXTRAS
        summary = v4_ratio_summary(
            ["dpath"], tmp_path, channel_width=8, clusters=(2, 3),
            scale=0.25,
        )
        assert summary["total_auto_v4_bits"] < summary["total_auto_v3_bits"]
        assert summary["improvement_bits"] > 0
        versions = {
            cell["auto_v4_version"]
            for row in summary["per_circuit"]
            for cell in row["clusters"].values()
        }
        assert 4 in versions

    @pytest.mark.integration
    def test_workload_runner_caches(self, tmp_path):
        from repro.eval.experiments import run_workload

        report = run_workload(tmp_path, n_tasks=2, length=8, seed=2)
        assert report["events"]["loads"] > 0
        # Nothing but the report is persisted: a forced rerun starts
        # from a cold decode cache and reproduces the report exactly.
        assert not (tmp_path / "decode_cache").exists()
        assert run_workload(tmp_path, n_tasks=2, length=8, seed=2,
                            force=True) == report
        # Second call comes from the versioned JSON cache (no new flows
        # and no new simulation: identical object, including timestamps).
        again = run_workload(tmp_path, n_tasks=2, length=8, seed=2)
        assert again == report


class TestRendering:
    def test_format_table(self):
        txt = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert "30" in lines[2] or "30" in lines[3]

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0

    def test_render_fig4(self):
        rows = [
            {"name": "x", "raw_bits": 1000, "vbs_bits": 400, "ratio": 0.4},
            {"name": "y", "raw_bits": 9000, "vbs_bits": 900, "ratio": 0.1},
        ]
        txt = render_fig4(rows)
        assert "x" in txt and "VBS" in txt and "%" in txt

    def test_render_fig5(self):
        series = [
            {"cluster": 1, "min_bits": 10, "geomean_bits": 20,
             "max_bits": 30, "avg_ratio": 0.4},
            {"cluster": 2, "min_bits": 5, "geomean_bits": 10,
             "max_bits": 20, "avg_ratio": 0.1},
        ]
        txt = render_fig5(series)
        assert "cluster" in txt and "4.00x" in txt

    def test_render_table2(self):
        rows = [{
            "name": "alu4", "size": 35, "mcw_paper": 9, "mcw_ours": 11,
            "lbs_paper": 1173, "lbs_ours": 1173,
        }]
        txt = render_table2(rows)
        assert "alu4" in txt and "1173" in txt

    def test_to_csv(self):
        txt = to_csv([{"a": 1, "b": 2}], ["a", "b"])
        assert txt.splitlines()[0] == "a,b"
        assert txt.splitlines()[1] == "1,2"
