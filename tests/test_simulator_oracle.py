"""Exactness oracle for the SoC simulator's performance mode: the
``simulator_oracle`` entry of ``tools/references.py``
(``tests/simulator_oracle.json``).

Every float of a fixed sequence on three SoCs, by ``float.hex``: cold
queries, a batched query, an offline ALP burst, queries on the throttled die
and one after a cooldown. It catches a reordered float operation in the
latency, energy, thermal or offline accounting. The tests read the session's
one registry check.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from references import SIMULATOR_CASES
from repro.hardware import get_soc

ORACLE = pathlib.Path(__file__).with_name("simulator_oracle.json")


@pytest.mark.parametrize("soc_name,task", SIMULATOR_CASES)
def test_simulator_matches_oracle(reference_check, soc_name, task):
    proc, verdicts = reference_check
    simulator = verdicts.get("simulator_oracle", {})
    assert simulator.get(f"{soc_name}/{task}") == "ok", proc.stdout + proc.stderr


def test_oracle_covers_throttling_and_the_tdp_cap():
    """The recorded sequences exercise the branches they exist to pin."""
    oracle = json.loads(ORACLE.read_text())
    assert set(oracle) == {f"{s}/{t}" for s, t in SIMULATOR_CASES}
    hot_clocks = [float.fromhex(row[4]) for case in oracle.values()
                  for key, row in case.items() if key.startswith("hot_query")]
    assert hot_clocks and all(c < 1.0 for c in hot_clocks)
    offline_clocks = [float.fromhex(case["offline"][1]) for case in oracle.values()]
    assert all(c < 1.0 for c in offline_clocks)
    capped = [key for case, rows in oracle.items() for key, row in rows.items()
              if "query" in key and float.fromhex(row[2])
              == get_soc(case.split("/")[0]).tdp_watts]
    assert capped
