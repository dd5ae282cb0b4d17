"""The paper's claims pinned on seeded fleets.

The headline claim, that live waiting quotes let the proposed scheme beat
the offline one: where it holds and where it fails. Only total waiting is
compared; the claim on cost needs a per-run cost in the paper's objective,
which the run files do not have. Then the claim that the scheme needs
little communication: what the golden scenario's proposed run sends."""

from pathlib import Path

from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import load_scenario
from fleetcharge.simulation import run_offline_baseline, run_proposed

GOLDEN_SCENARIO = Path(__file__).parent / "goldens" / "scenario.json"


def _waits(template):
    """Total waiting minutes, (offline, proposed), of seeds 1-10."""
    waits = {}
    for seed in range(1, 11):
        scenario = generate_scenario(template, seed)
        waits[seed] = (
            run_offline_baseline(scenario).metrics.total_waiting_minutes,
            run_proposed(scenario).metrics.total_waiting_minutes,
        )
    return waits


def _totals(waits):
    return tuple(round(sum(w[i] for w in waits.values()), 1) for i in (0, 1))


def test_at_congested_single_port_stations_proposed_waits_less_on_every_seed():
    # 200 trucks over 6 one-port stations
    waits = _waits(ScenarioTemplate(truck_count=200, station_count=6, port_count_range=(1, 1)))
    reductions = sorted(round(100.0 * (1.0 - p / b), 1) for b, p in waits.values())
    assert reductions[0] == 23.1 and reductions[-1] == 29.9


def test_at_the_default_assumed_wait_proposed_waits_more_on_four_seeds():
    # proposed trucks assume a 12-minute wait (w_hat) at every station
    # not yet negotiated
    waits = _waits(ScenarioTemplate())
    assert [seed for seed, (b, p) in waits.items() if p > b] == [2, 4, 5, 7]
    assert _totals(waits) == (1118.5, 1184.1)


def test_assuming_no_wait_ahead_proposed_never_waits_more():
    waits = _waits(ScenarioTemplate(w_hat=0.0))
    assert [seed for seed, (b, p) in waits.items() if p > b] == []
    assert _totals(waits) == (1118.5, 978.4)


def test_each_ramp_exchange_sends_four_short_messages():
    # an arrival, a waiting estimate, a commitment and an ack per ramp
    transcripts = run_proposed(load_scenario(str(GOLDEN_SCENARIO))).transcripts
    assert len(transcripts) == 27
    assert all(len(tr.messages) == 4 for tr in transcripts)
    # wire lines plus their newlines: about 245 bytes per exchange
    lines = [line for tr in transcripts for line in tr.wire_lines()]
    assert sum(len(line.encode()) + 1 for line in lines) == 6611
