"""CLI surface of the sweep engine: `repro sweep` and `--jobs/--no-cache`."""

import json

import pytest

from repro.cli import main
from repro.exec.engine import _default  # noqa: F401  (import check only)


def test_sweep_toy_serial_cached(tmp_path, capsys):
    cache = tmp_path / "cache"
    out = tmp_path / "toy.json"
    assert main(
        ["sweep", "toy", "--cache-dir", str(cache), "--out", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert "== sweep toy:" in text
    assert "12 run, 0 cached" in text
    db = json.loads(out.read_text())
    assert len(db["records"]) == 12  # 3 configs x 4 cpu levels

    # Second invocation is fully cache-served and byte-identical.
    out2 = tmp_path / "toy2.json"
    assert main(
        ["sweep", "toy", "--cache-dir", str(cache), "--out", str(out2)]
    ) == 0
    text2 = capsys.readouterr().out
    assert "0 run, 12 cached" in text2
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_no_cache_never_writes(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(
        ["sweep", "toy", "--cache-dir", str(cache), "--no-cache"]
    ) == 0
    assert "12 run, 0 cached" in capsys.readouterr().out
    assert not any(cache.rglob("*.json")) if cache.exists() else True


def test_sweep_rejects_bad_jobs(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "toy", "--jobs", "0"])
    with pytest.raises(SystemExit):
        main(["sweep", "nosuchapp"])


@pytest.mark.parametrize(
    "argv",
    [
        ["fig3a", "--no-plot", "--jobs", "0"],
        ["fig3a", "--no-plot", "--jobs", "-2"],
        ["sweep", "toy", "--jobs", "0"],
        ["dash", "fig5-sweep", "--jobs", "-1"],
    ],
    ids=" ".join,
)
def test_jobs_must_be_positive(argv, tmp_path, monkeypatch, capsys):
    """Every command's --jobs rejects N < 1 as a usage error before running."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--jobs: must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_figures_accept_cache_flags_and_restore_default(tmp_path, capsys):
    from repro.exec import default_engine
    from repro.exec.engine import SweepEngine

    before = default_engine()
    assert main(
        ["ablation-a4", "--cache-dir", str(tmp_path / "cache"), "--no-plot"]
    ) == 0
    out = capsys.readouterr().out
    assert "ablation-a4" in out
    assert "sweep engine:" in out
    after = default_engine()
    # The CLI-scoped engine was uninstalled on exit.
    assert isinstance(after, SweepEngine)
    assert after is before
