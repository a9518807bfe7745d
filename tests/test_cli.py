"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_known_experiments():
    parser = build_parser()
    args = parser.parse_args(["fig6", "--full", "--jobs", "2"])
    assert args.experiment == "fig6"
    assert args.full
    assert args.jobs == 2


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig42"])


def test_parser_accepts_executor_flags():
    args = build_parser().parse_args(
        ["fig6", "--backend", "inline", "--fresh", "--retry", "2"]
    )
    assert args.backend == "inline"
    assert args.resume is False
    assert args.retry == 2


def test_parser_defaults_resume_on():
    args = build_parser().parse_args(["fig6"])
    assert args.resume is True
    assert args.backend is None
    assert args.retry == 0


def test_parser_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig6", "--backend", "quantum"])


def test_list_prints_registry_help_lines(capsys):
    exit_code = main(["list"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "available experiments" in out
    from repro.dse.experiments import REGISTRY

    for name, experiment in REGISTRY.items():
        assert name in out
        assert experiment.help in out


def test_main_runs_noc_quick(tmp_path, capsys):
    exit_code = main(["noc", "--out", str(tmp_path)])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "all delivered" in captured.out
    assert (tmp_path / "noc.txt").exists()


def test_main_runs_stream(tmp_path, capsys):
    exit_code = main(["stream", "--out", str(tmp_path), "--jobs", "1"])
    assert exit_code == 0
    assert "cyc/blk" in capsys.readouterr().out
    assert (tmp_path / "stream.txt").exists()


def test_trace_command_writes_a_valid_timeline(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    exit_code = main(["trace", "cg-tiny", "--out", str(out_file)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "traced cg-tiny" in out
    assert "overlap efficiency" in out
    import json

    events = json.loads(out_file.read_text())["traceEvents"]
    assert events and all("ph" in event for event in events)


def test_trace_command_heatmap_flag(tmp_path, capsys):
    exit_code = main([
        "trace", "cg-tiny", "--out", str(tmp_path / "t.json"), "--heatmap",
    ])
    assert exit_code == 0
    assert "noc spatial map" in capsys.readouterr().out


def test_trace_command_rejects_unknown_workload(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "nope", "--out", str(tmp_path / "t.json")])
