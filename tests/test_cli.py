"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.store import load_partition


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# comment line\ncat\ndog\nfi(sh|ne)\n\n")
    return str(path)


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"the cat chased a fish past the dog " * 40)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_args(self):
        args = build_parser().parse_args(["compile", "rules.txt"])
        assert args.command == "compile"

    def test_run_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "r", "i", "--engine", "magic"])


class TestCompile:
    def test_compile_prints_size(self, rules_file, capsys):
        assert main(["compile", rules_file]) == 0
        out = capsys.readouterr().out
        assert "3 rules" in out
        assert "states" in out

    def test_compile_empty_rules(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(SystemExit):
            main(["compile", str(empty)])


class TestProfile:
    def test_profile_and_save(self, rules_file, tmp_path, capsys):
        out_path = tmp_path / "sets.json"
        code = main([
            "profile", rules_file,
            "--inputs", "50", "--length", "60",
            "--symbol-low", "97", "--symbol-high", "122",
            "-o", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "convergence sets" in out
        partition = load_partition(out_path)
        assert partition.num_blocks >= 1


class TestRun:
    @pytest.mark.parametrize("engine", ["sequential", "enumerative", "lbe",
                                        "pap", "cse"])
    def test_run_each_engine(self, rules_file, input_file, engine, capsys):
        code = main([
            "run", rules_file, input_file,
            "--engine", engine, "--segments", "4",
            "--symbol-low", "97", "--symbol-high", "122",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final state" in out
        assert "speedup" in out

    def test_run_with_saved_partition(self, rules_file, input_file, tmp_path,
                                      capsys):
        sets_path = tmp_path / "sets.json"
        main(["profile", rules_file, "--inputs", "40", "--length", "50",
              "--symbol-low", "97", "--symbol-high", "122",
              "-o", str(sets_path)])
        capsys.readouterr()
        code = main([
            "run", rules_file, input_file,
            "--engine", "cse", "--segments", "4",
            "--partition", str(sets_path),
        ])
        assert code == 0
        assert "CSE" in capsys.readouterr().out

    def test_run_prints_reports(self, rules_file, input_file, capsys):
        main(["run", rules_file, input_file, "--engine", "sequential",
              "--reports", "3"])
        out = capsys.readouterr().out
        assert "reports" in out
        assert "offset" in out


class TestFigures:
    def test_table2_no_computation(self, capsys):
        assert main(["figures", "table2"]) == 0
        out = capsys.readouterr().out
        assert "CSE" in out and "set FSM" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


ANML_SAMPLE = """
<automata-network id="net">
  <state-transition-element id="q_a" symbol-set="[a]"
                            start-of-data="all-input">
    <activate-on-match element="q_b"/>
  </state-transition-element>
  <state-transition-element id="q_b" symbol-set="[b]">
    <report-on-match/>
  </state-transition-element>
</automata-network>
"""


class TestAnml:
    def test_report_size(self, tmp_path, capsys):
        anml = tmp_path / "net.anml"
        anml.write_text(ANML_SAMPLE)
        assert main(["anml", str(anml)]) == 0
        assert "states" in capsys.readouterr().out

    def test_scan_input(self, tmp_path, capsys):
        anml = tmp_path / "net.anml"
        anml.write_text(ANML_SAMPLE)
        data = tmp_path / "input.bin"
        data.write_bytes(b"xxabyyab")
        assert main(["anml", str(anml), "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert "2 report events" in out


class TestSoftware:
    @pytest.mark.parametrize("backend", ["python", "dense", "native",
                                         "prefilter", "auto"])
    def test_each_backend(self, rules_file, input_file, backend, capsys):
        code = main([
            "software", rules_file, input_file,
            "--backend", backend, "--segments", "4", "--trivial",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend:" in out
        assert "final state" in out
        assert "work speedup" in out

    @pytest.mark.parametrize("backend", ["lockstep", "bitset"])
    def test_retired_backend_rejected(self, rules_file, input_file, backend,
                                      capsys):
        with pytest.raises(SystemExit) as exc:
            main(["software", rules_file, input_file, "--backend", backend])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_profiled_partition(self, rules_file, input_file, capsys):
        code = main([
            "software", rules_file, input_file,
            "--segments", "4",
            "--symbol-low", "97", "--symbol-high", "122",
        ])
        assert code == 0
        assert "convergence sets" in capsys.readouterr().out

    def test_saved_partition(self, rules_file, input_file, tmp_path, capsys):
        sets_path = tmp_path / "sets.json"
        main(["profile", rules_file, "--inputs", "40", "--length", "50",
              "--symbol-low", "97", "--symbol-high", "122",
              "-o", str(sets_path)])
        capsys.readouterr()
        code = main([
            "software", rules_file, input_file,
            "--segments", "4", "--partition", str(sets_path),
            "--backend", "dense",
        ])
        assert code == 0
        assert "backend: dense" in capsys.readouterr().out

    @pytest.mark.slow
    def test_process_pool(self, rules_file, input_file, capsys):
        code = main([
            "software", rules_file, input_file,
            "--segments", "4", "--trivial", "--processes", "2",
        ])
        assert code == 0
        assert "final state" in capsys.readouterr().out

    def test_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["software", "r", "i", "--backend", "simd"])


class TestPlan:
    def test_recommends_allocation(self, rules_file, capsys):
        code = main([
            "plan", rules_file,
            "--inputs", "40", "--length", "80",
            "--symbol-low", "97", "--symbol-high", "122",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended allocation" in out
        assert "predicted speedup" in out
