"""The benchmark's simulated results, pinned: "bit-identical" as a gate.

Each ``perf/`` workload hashes its simulated-clock results (latency means,
p99, throughput, disk IOs, memory ratio, the baselines' numbers, the chaos
fingerprint) into a ``sim_digest``.  A host-time optimisation under ``src/``
must leave every one of them unchanged, so the digests of a small-scale run
are committed here.  They were generated on the parent commit of the PR that
added this file (c5c66c1), *before* any ``src/`` edit of that PR::

    w = WORKLOAD_CLASSES[name](seed, 0.1); s = w.setup(); sim_digest(w.sim(s, w.timed(s)))

A digest that moves means a simulated float, counter or fingerprint moved:
either the change is wrong or it is a deliberate model change, in which case
regenerate the pin in the same commit and say which metric moved.
``perf/`` is imported read-only.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf.run import sim_digest  # noqa: E402
from perf.workloads import WORKLOAD_CLASSES  # noqa: E402

SCALE = 0.1

PINS = {
    42: {
        "update_heavy": "0132f775ebe4bc7e",
        "basic_io_five_stores": "07883574af3fc776",
        "degraded_wide_large": "de671f754d54913a",
        "engine_load_chaos": "111e01958bae4e27",
    },
    7: {
        "update_heavy": "3e969ebe7a7d9949",
        "basic_io_five_stores": "ec51091756ea20be",
        "degraded_wide_large": "5973217b0a9c9841",
        "engine_load_chaos": "305e04cb0264d6ca",
    },
}


def test_every_benchmark_workload_is_pinned():
    for pins in PINS.values():
        assert set(pins) == set(WORKLOAD_CLASSES)


@pytest.mark.parametrize("seed", sorted(PINS))
@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_sim_digest_matches_the_pin(name, seed):
    workload = WORKLOAD_CLASSES[name](seed, SCALE)
    state = workload.setup()
    out = workload.timed(state)
    assert sim_digest(workload.sim(state, out)) == PINS[seed][name]
