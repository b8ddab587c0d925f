"""Unit tests for CLI command handlers.

Simulation calls are stubbed, except in the ``--profile`` tests, which
need a real run to profile.
"""

import pytest

import repro.experiments.cli as cli
from repro.experiments import cache, scenarios
from repro.experiments.runner import MbacConfig, ScenarioResult


@pytest.fixture
def canned_result():
    return ScenarioResult(
        controller_name="drop/in-band/slow-start", seed=1,
        utilization=0.85, loss_probability=3.2e-3, blocking_probability=0.21,
        offered=100, admitted=79,
        per_class={"EXP1": {"blocking_probability": 0.21,
                            "loss_probability": 3.2e-3}},
    )


def test_run_command_prints_metrics(monkeypatch, capsys, canned_result):
    captured = {}

    def fake_run_many(tasks, **kwargs):
        ((config, spec),) = tasks
        captured["config"] = config
        captured["spec"] = spec
        return [canned_result]

    monkeypatch.setattr(cli.parallel, "run_many", fake_run_many)
    assert cli.main(["run", "basic", "--design", "drop/in-band",
                     "--epsilon", "0.02", "--scale", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "utilization: 0.8500" in out
    assert "blocking   : 0.2100 (21/100)" in out
    assert "class EXP1" in out
    assert captured["spec"].epsilon == 0.02
    assert captured["config"].interarrival == 3.5


def test_run_command_mbac(monkeypatch, capsys, canned_result):
    captured = {}
    monkeypatch.setattr(
        cli.parallel, "run_many",
        lambda tasks, **kw: captured.update(spec=tasks[0][1]) or [canned_result],
    )
    assert cli.main(["run", "basic", "--mbac", "0.95"]) == 0
    assert isinstance(captured["spec"], MbacConfig)
    assert captured["spec"].target_utilization == 0.95


def test_run_command_no_controller(monkeypatch, capsys, canned_result):
    captured = {}
    monkeypatch.setattr(
        cli.parallel, "run_many",
        lambda tasks, **kw: captured.update(spec=tasks[0][1]) or [canned_result],
    )
    assert cli.main(["run", "basic"]) == 0
    assert captured["spec"] is None


def test_run_command_unknown_scenario(capsys):
    assert cli.main(["run", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_command_bad_design(capsys):
    assert cli.main(["run", "basic", "--design", "sideways"]) == 2
    assert "bad design" in capsys.readouterr().err


def test_figure_command_uses_registry(monkeypatch, capsys):
    calls = []

    class Fake:
        text = "FAKE FIGURE TEXT"

    monkeypatch.setitem(cli.EXPERIMENTS, "figure2",
                        lambda scale=None: calls.append(scale) or Fake())
    assert cli.main(["figure", "figure2", "--scale", "0.02"]) == 0
    assert calls == [0.02]
    assert "FAKE FIGURE TEXT" in capsys.readouterr().out


# -- --profile: cProfile around the command, this process only --------------

_TINY_RUN = ["run", "basic", "--design", "drop/in-band", "--scale", "0.0001",
             "--no-cache", "--jobs", "1"]


@pytest.fixture
def tiny_fresh_runs(monkeypatch):
    """Make ``_TINY_RUN`` a real but short simulation.

    The warm-up floor drops from 120 to 10 simulated seconds, and the
    in-process memo tier is swapped for an empty one, so every invocation
    simulates instead of replaying an earlier test's result.
    """
    monkeypatch.setattr(scenarios, "MIN_WARMUP", 10.0)
    monkeypatch.setattr(cache, "_MEMO", {})
    monkeypatch.delenv("REPRO_JOBS", raising=False)


def test_profile_prints_self_time_rows(capsys, tiny_fresh_runs):
    assert cli.main(_TINY_RUN + ["--profile"]) == 0
    err = capsys.readouterr().err
    assert "Ordered by: internal time" in err
    assert "(_tx_done)" in err


def test_profile_leaves_stdout_unchanged(monkeypatch, capsys, tiny_fresh_runs):
    assert cli.main(_TINY_RUN) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(cache, "_MEMO", {})
    assert cli.main(_TINY_RUN + ["--profile"]) == 0
    assert capsys.readouterr().out == plain
    assert "utilization:" in plain


def test_profile_refuses_worker_processes(capsys, tiny_fresh_runs):
    assert cli.main(["run", "basic", "--profile", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert "--profile" in err
    assert "--jobs" in err
