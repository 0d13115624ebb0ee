"""Command-line front-ends and the exception hierarchy."""

import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.UnroutableError, errors.RoutingError)
        assert issubclass(errors.DevirtualizationError, errors.VbsError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.BitstreamError("boom")


class TestVbsgenCli:
    @pytest.mark.integration
    def test_vbsgen_on_blif(self, tmp_path, capsys):
        from repro.cli import main_vbsgen

        blif = tmp_path / "demo.blif"
        blif.write_text(
            ".model demo\n.inputs a b\n.outputs x y\n"
            ".names a b x\n11 1\n.names a b y\n10 1\n01 1\n.end\n"
        )
        out = tmp_path / "demo.vbs"
        raw = tmp_path / "demo.raw"
        rc = main_vbsgen(
            [str(blif), "-o", str(out), "-W", "8", "--raw-output", str(raw)]
        )
        assert rc == 0
        assert out.exists() and out.stat().st_size > 0
        assert raw.exists() and raw.stat().st_size > 0
        captured = capsys.readouterr().out
        assert "VirtualBitstream" in captured
        # The VBS file must be smaller than the raw file.
        assert out.stat().st_size < raw.stat().st_size

    @pytest.mark.integration
    def test_vbsgen_default_output_and_cluster(self, tmp_path):
        from repro.cli import main_vbsgen

        blif = tmp_path / "c2.blif"
        blif.write_text(
            ".model c2\n.inputs a b c\n.outputs z\n"
            ".names a b c z\n111 1\n000 1\n.end\n"
        )
        rc = main_vbsgen([str(blif), "-W", "8", "-c", "2"])
        assert rc == 0
        assert (tmp_path / "c2.vbs").exists()

    def test_vbsgen_unknown_codec_exits_2_before_cad(self, tmp_path,
                                                     capsys):
        """A typo'd --codecs name must fail in milliseconds with a
        friendly exit 2, not traceback after minutes of CAD flow."""
        from repro.cli import main_vbsgen

        blif = tmp_path / "c3.blif"
        blif.write_text(
            ".model c3\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n"
        )
        rc = main_vbsgen([str(blif), "-W", "8", "--codecs", "lzma"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "lzma" in captured.err
        # The flow never ran: no container was written.
        assert not (tmp_path / "c3.vbs").exists()

    @pytest.mark.integration
    def test_vbsgen_predictor_store_roundtrip(self, tmp_path, capsys):
        """--predictor-store warms a store on the first run and replays
        it on the second: same bytes out, fewer trials, file updated."""
        import json

        from repro.cli import main_vbsgen

        blif = tmp_path / "p1.blif"
        blif.write_text(
            ".model p1\n.inputs a b\n.outputs x y\n"
            ".names a b x\n11 1\n.names a b y\n10 1\n01 1\n.end\n"
        )
        out = tmp_path / "p1.vbs"
        store = tmp_path / "predictor.json"
        rc = main_vbsgen([
            str(blif), "-o", str(out), "-W", "8", "--codecs", "auto",
            "--predictor-store", str(store),
        ])
        assert rc == 0
        assert store.exists()
        payload = json.loads(store.read_text())
        assert payload["cells"]
        cold_bytes = out.read_bytes()
        first = capsys.readouterr().out
        assert "predictor:" in first

        rc = main_vbsgen([
            str(blif), "-o", str(out), "-W", "8", "--codecs", "auto",
            "--predictor-store", str(store),
        ])
        assert rc == 0
        assert out.read_bytes() == cold_bytes
        assert "predictor:" in capsys.readouterr().out


class TestVbsgenBackendFlag:
    def test_thread_backend_flag_exits_two(self, tmp_path, capsys):
        """``--workers N`` is the only pool knob: a ``--backend`` flag is
        an argument error (exit 2), never silently ignored."""
        from repro.cli import main_vbsgen

        blif = tmp_path / "demo.blif"
        blif.write_text(".model demo\n.inputs a\n.outputs x\n"
                        ".names a x\n1 1\n.end\n")
        with pytest.raises(SystemExit) as exc:
            main_vbsgen([str(blif), "--workers", "2", "--backend", "thread"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert not (tmp_path / "demo.vbs").exists()


class TestReproCli:
    @pytest.mark.integration
    def test_vbs_inspect(self, tmp_path, capsys):
        from repro.cli import main

        blif = tmp_path / "demo.blif"
        blif.write_text(
            ".model demo\n.inputs a b\n.outputs x y\n"
            ".names a b x\n11 1\n.names a b y\n10 1\n01 1\n.end\n"
        )
        out = tmp_path / "demo.vbs"
        rc = main([
            "vbsgen", str(blif), "-o", str(out), "-W", "8",
            "--codecs", "auto", "--workers", "2",
        ])
        assert rc == 0
        capsys.readouterr()

        rc = main(["vbs", "inspect", str(out), "--per-cluster"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "prelude:" in text
        assert "codec" in text
        assert "compression ratio:" in text
        # Per-cluster rows name registered codecs.
        assert "'list'" in text or "'rle'" in text

    @pytest.mark.integration
    def test_vbs_inspect_json_schema(self, tmp_path, capsys):
        """--json output keys are a tooling contract: additions are fine,
        renames/removals are regressions this test pins."""
        import json

        from repro.cli import main

        blif = tmp_path / "demo.blif"
        blif.write_text(
            ".model demo\n.inputs a b\n.outputs x y\n"
            ".names a b x\n11 1\n.names a b y\n10 1\n01 1\n.end\n"
        )
        out = tmp_path / "demo.vbs"
        rc = main(["vbsgen", str(blif), "-o", str(out), "-W", "8",
                   "--codecs", "auto"])
        assert rc == 0
        capsys.readouterr()

        rc = main(["vbs", "inspect", str(out), "--json", "--per-cluster"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) >= {
            "file", "bytes", "version", "prelude", "payload_bits",
            "prelude_bits", "dict_patterns", "dict_section_bits",
            "records", "codec_counts", "raw_equivalent_bits",
            "compression_ratio", "per_cluster",
        }
        assert set(summary["prelude"]) == {
            "cluster_size", "channel_width", "lut_size", "compact_logic",
            "width", "height",
        }
        assert summary["version"] in (2, 3)
        assert summary["records"] == sum(summary["codec_counts"].values())
        assert summary["records"] == len(summary["per_cluster"])
        for rec in summary["per_cluster"]:
            assert set(rec) == {"pos", "codec", "tag", "bits"}
        assert 0.0 < summary["compression_ratio"] < 1.0
        # Payload accounting in the JSON matches the per-record rows.
        assert summary["payload_bits"] >= sum(
            rec["bits"] for rec in summary["per_cluster"]
        )

    @pytest.mark.integration
    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "junk.vbs"
        bad.write_bytes(b"\x00" * 64)
        assert main(["vbs", "inspect", str(bad)]) == 2
        assert "error: bad magic" in capsys.readouterr().err

    def test_inspect_rejects_truncated_container(self, tmp_path, capsys):
        """Half a container is a wire-format error (exit 2), never a
        bare ``EOFError`` traceback from the bit reader."""
        from repro.arch import ArchParams
        from repro.cli import main
        from repro.utils.bitarray import BitArray
        from repro.vbs.encode import VirtualBitstream
        from repro.vbs.format import ClusterRecord, VbsLayout

        layout = VbsLayout(ArchParams(channel_width=5), 2, 4, 4)
        raw = BitArray(layout.raw_bits_per_cluster)
        raw[5] = 1
        vbs = VirtualBitstream(layout, [
            ClusterRecord((0, 0), raw=True, raw_frames=raw),
            ClusterRecord((1, 1), raw=True, raw_frames=raw.copy()),
        ])
        data = vbs.to_bits().to_bytes()
        out = tmp_path / "half.vbs"
        out.write_bytes(data[: len(data) // 2])

        assert main(["vbs", "inspect", str(out)]) == 2
        assert "error: truncated VBS container" in capsys.readouterr().err

    def test_inspect_shared_dict_container_without_table(self, tmp_path,
                                                         capsys):
        """Inspecting a VERSION 4 shared-dictionary container whose task
        table is not at hand degrades to a prelude + reference summary
        instead of a traceback (the payload is unparseable by design) —
        and exits 2 with the unresolved id named on stderr, because an
        inspect that could not parse the records is a failed inspect."""
        import json

        from repro.arch import ArchParams
        from repro.cli import main
        from repro.utils.bitarray import BitArray
        from repro.vbs import VirtualBitstream
        from repro.vbs.format import ClusterRecord, VbsLayout

        layout = VbsLayout(ArchParams(channel_width=5), 1, 4, 2)
        pattern = BitArray(layout.logic_bits_per_cluster)
        pattern[3] = 1
        lay = layout.with_shared_dict(11, (pattern,))
        vbs = VirtualBitstream(lay, [
            ClusterRecord((0, 0), raw=False, logic=pattern.copy(),
                          pairs=[], codec="dict"),
        ])
        out = tmp_path / "shared.vbs"
        out.write_bytes(vbs.to_bits().to_bytes())

        rc = main(["vbs", "inspect", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "shared dictionary: id 11" in captured.out
        assert "table not available" in captured.out
        assert "error: cannot resolve shared dictionary id 11" in captured.err

        rc = main(["vbs", "inspect", str(out), "--json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "cannot resolve shared dictionary id 11" in captured.err
        summary = json.loads(captured.out)
        assert summary["version"] == 4
        assert summary["shared_dict_id"] == 11
        assert summary["prelude"]["width"] == 4
        assert "shared_table_unresolved" in summary


class TestRunAllCli:
    @pytest.mark.integration
    def test_run_all_small(self, tmp_path, capsys):
        from repro.eval.run_all import main

        rc = main([
            "--names", "ex5p",
            "--scale", "0.06",
            "--channel-width", "8",
            "--clusters", "1", "2",
            "--results-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 5" in out
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig5.csv").exists()
