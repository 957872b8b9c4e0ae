"""Figure 1: the Theorem 1 and Theorem 2 bound curves.

Left panel: Price-of-Anarchy lower bound vs MUR.  Right panel:
envy-freeness lower bound vs MBR.  These are closed forms; the benchmark
times their evaluation and prints the plotted series.
"""

from repro.analysis import fig1_data, format_series


def test_fig1_bound_curves(benchmark, report):
    data = benchmark(fig1_data)

    assert data["poa_bound"][-1] == 0.75
    assert abs(data["ef_bound"][-1] - 0.828) < 5e-4

    report(
        "Figure 1 (left): PoA lower bound vs MUR (Theorem 1)\n"
        + format_series("PoA", data["mur"], data["poa_bound"], max_points=21)
        + "\n\nFigure 1 (right): envy-freeness lower bound vs MBR (Theorem 2)\n"
        + format_series("EF", data["mbr"], data["ef_bound"], max_points=21)
    )
