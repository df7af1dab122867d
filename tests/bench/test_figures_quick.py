"""Quick-mode smoke tests of every figure entry and the CLI."""

import json

import pytest

from repro.bench.figures import FIGURES, fig3
from repro.bench.__main__ import main as bench_main


def test_registry_covers_all_paper_figures():
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        assert name in FIGURES


def test_registry_has_ablations():
    assert sum(1 for n in FIGURES if n.startswith("ablation")) >= 4


@pytest.mark.parametrize("name", ["fig3", "ablation_sync", "ablation_o2o",
                                  "ablation_block"])
def test_quick_figures_return_plottable_results(name):
    result = FIGURES[name](True)
    assert result.series
    for s in result.series:
        assert s.points, f"{name}/{s.label} has no points"
        assert all(p.y >= 0 for p in s.points)
    assert result.format_table()


def test_fig3_quick_subset_of_full_xs():
    quick = fig3(True)
    assert set(quick.series[0].xs()) <= {16, 64, 128, 256, 512, 768, 1024,
                                         1536, 2048}


def test_cli_runs_and_writes_json(tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = bench_main(["fig3", "--quick", "--json", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "Figure 3" in printed
    data = json.loads(out.read_text())
    assert data[0]["figure"] == "Figure 3"


def test_cli_plot_flag(capsys):
    rc = bench_main(["ablation_block", "--quick", "--plot"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "legend:" in printed


def test_cli_rejects_unknown_figure(capsys):
    with pytest.raises(SystemExit):
        bench_main(["nonsense"])


def test_profile_reports_simulated_checks_per_receive():
    from repro.bench.__main__ import polling_line
    from repro.obs import WorkStats

    work = {"check-fixed": WorkStats(884, seconds=0.2),
            "recv-fixed": WorkStats(8, seconds=0.02),
            "ring-recv-fixed": WorkStats(2, seconds=0.01),
            "app-compute": WorkStats(5, seconds=1.0)}
    assert polling_line(work).endswith("= 88.4 checks per receive")
    assert polling_line({"recv-fixed": WorkStats(8, seconds=0.02)}) == ""
