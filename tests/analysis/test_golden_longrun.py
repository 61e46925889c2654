"""Golden long-run artefact bytes: small sharded runs recorded on a
known-good revision (see tests/golden/README.md) must reproduce
byte-identically — across the event-loop/network rewrite, the pipelined
pool merge, and any jobs/fleet count.
"""

from pathlib import Path

import pytest

from repro.analysis.fleet import run_fleet_longrun, write_fleet_artefacts
from repro.analysis.longrun import run_longrun, write_longrun_artefacts
from tests.golden.capture_goldens import (
    FLEET_SCENARIO,
    GOLDEN_DIR,
    LONGRUN_SCENARIO,
)


def _assert_identical(produced: Path, golden_name: str) -> None:
    golden = GOLDEN_DIR / golden_name
    assert produced.read_bytes() == golden.read_bytes(), (
        f"{golden_name} diverged from the golden artefact — the long-run "
        f"engine's deterministic output changed"
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_longrun_artefacts_match_golden(tmp_path, jobs):
    report = run_longrun("SODA", jobs=jobs, **LONGRUN_SCENARIO)
    assert report.ok
    json_path, csv_path = write_longrun_artefacts(report, tmp_path)
    _assert_identical(json_path, "longrun_soda_1200.json")
    _assert_identical(csv_path, "longrun_soda_1200.csv")


@pytest.mark.parametrize("fleet", [1, 2])
def test_fleet_artefacts_match_golden(tmp_path, fleet):
    report = run_fleet_longrun("SODA", jobs=1, fleet=fleet, **FLEET_SCENARIO)
    assert report.ok
    json_path, csv_path = write_fleet_artefacts(report, tmp_path)
    _assert_identical(json_path, "fleet_soda_4x600.json")
    _assert_identical(csv_path, "fleet_soda_4x600.csv")
