"""The juggler-repro command-line entry point."""

from repro.cli import EXPERIMENTS, main


def test_list_is_default(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_explicit_list(capsys):
    assert main(["list"]) == 0
    assert "fig20" in capsys.readouterr().out


def test_unknown_experiment_rejected(capsys):
    assert main(["not-a-figure"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_registry_covers_every_figure():
    expected = {"fig01", "fig09", "fig10", "fig12", "fig13", "fig14",
                "fig15", "fig16", "fig18", "fig20", "sec31", "sec512",
                "ablations", "scheduling"}
    assert set(EXPERIMENTS) == expected


def test_runs_one_experiment(capsys, monkeypatch):
    # Swap in a stub runner so the test stays fast.
    monkeypatch.setitem(EXPERIMENTS, "fig12",
                        (lambda: "STUB-TABLE", "stubbed"))
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "STUB-TABLE" in out
    assert "fig12" in out
