import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ctring.experiments import sweep as sweep_records

SWEEP_MAX_N = 8
SWEEP_MAX_LEN = 3


@pytest.fixture(scope="session")
def sweep():
    """Every pair of weak compositions with equal sum n <= 8, lengths <= 3:
    standard-basis equality, three Hilbert series, Lefschetz ranks, and the
    vanishing-ideal witnesses, with the wall time of the whole sweep and the
    largest n."""
    t0 = time.perf_counter()
    records = list(sweep_records(SWEEP_MAX_N, SWEEP_MAX_LEN))
    return {"records": records, "seconds": time.perf_counter() - t0, "max_n": SWEEP_MAX_N}
