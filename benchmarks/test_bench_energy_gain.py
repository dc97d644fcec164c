"""§6 "Energy Gain" — the paper's headline number.

"70% of the energy can be saved up while only reducing by 2% the average
task accuracy, compared to a scenario without compression."
"""

from repro.experiments import EnergyGainConfig, headline_at_loss, run_energy_gain

from benchkit import PAPER_SCALE, run_once

CONFIG = EnergyGainConfig() if PAPER_SCALE else EnergyGainConfig(n=60, repetitions=4)


def test_energy_gain_headline(benchmark, save_table):
    table = run_once(benchmark, lambda: run_energy_gain(CONFIG))
    save_table("energy_gain", table)

    # at least ~60 % of the no-compression energy can be saved while
    # losing no more than ~3 accuracy points (paper: 70 % at 2 points;
    # exact numbers depend on the synthetic curve calibration)
    gain = headline_at_loss(table, max_loss_points=3.0)
    assert gain is not None and gain >= 55.0

    rows = table.as_dicts()
    savings = [r["energy_saving_pct"] for r in rows]
    assert savings == sorted(savings, reverse=True)  # saving shrinks with β
