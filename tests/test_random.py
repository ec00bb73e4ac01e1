"""``repro.sim.random`` against numpy, its oracle.

The runtime's generator must draw, call for call, exactly what
``numpy.random.default_rng(seed)`` draws, and the stdlib mean in
``repro.migration.stats`` must return what ``np.mean`` returns: every
golden digest was recorded with numpy.
"""

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.migration.stats import mean
from repro.sim._ziggurat import EXP_R
from repro.sim.random import RandomStreams, Rng

#: The seed shapes the tree builds (sim/random.py, fs/server.py,
#: workloads/activity.py, workloads/trace.py, loadsharing/selectors.py).
SEEDS = st.one_of(
    st.builds(
        lambda seed, name: (seed << 32) ^ zlib.crc32(name.encode()),
        st.integers(0, 2**40),
        st.text(max_size=12),
    ),
    st.builds(lambda seed: seed ^ 0xD15C, st.integers(0, 2**32)),
    st.builds(
        lambda seed, host: (seed << 16) ^ (host * 2654435761 % 2**31),
        st.integers(0, 2**20),
        st.integers(0, 64),
    ),
    st.builds(lambda draw, index: (draw + index) % 2**31,
              st.integers(0, 2**31 - 1), st.integers(0, 64)),
    st.integers(0, 2**130),
)

CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
    st.tuples(st.just("exponential"), st.floats(0.0, 1e4)),
    # Ranges 2..2**32, so the buffered upper half-word is exercised.
    st.tuples(st.just("integers"), st.integers(2, 2**32)),
    st.tuples(st.just("integers2"), st.integers(-(2**31), 2**31),
              st.integers(2, 2**32)),
    st.integers(1, 300).flatmap(
        lambda population: st.tuples(
            st.sampled_from(["choice", "choice_list"]),
            st.just(population),
            st.integers(0, min(population, 40)),
        )
    ),
    # Long exponential runs reach the ziggurat's slow paths.
    st.tuples(st.just("exponentials"), st.integers(50, 400)),
)


def _draw(gen, call):
    """One call, its result as plain Python values."""
    kind, *args = call
    if kind == "random":
        result = gen.random()
    elif kind == "uniform":
        low, span = args
        result = gen.uniform(low, low + span)
    elif kind == "exponential":
        result = gen.exponential(args[0])
    elif kind == "integers":
        result = gen.integers(args[0])
    elif kind == "integers2":
        low, span = args
        result = gen.integers(low, low + span)
    elif kind == "choice":
        population, size = args
        result = gen.choice(population, size=size, replace=False)
    elif kind == "choice_list":
        population, size = args
        hosts = [f"h{i}" for i in range(population)]
        result = gen.choice(hosts, size=size, replace=False)
    else:
        result = [gen.exponential(1.0) for _ in range(args[0])]
    return np.asarray(result).tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS, st.lists(CALLS, max_size=40))
def test_draws_match_numpy_call_for_call(seed, calls):
    ours, theirs = Rng(seed), np.random.default_rng(seed)
    for call in calls:
        assert _draw(ours, call) == _draw(theirs, call), call


def test_streams_match_numpy_seeded_by_name():
    streams = RandomStreams(seed=7)
    for name in ("faults.plan", "faults.net", "probe"):
        oracle = np.random.default_rng((7 << 32) ^ zlib.crc32(name.encode()))
        gen = streams.stream(name)
        assert streams.stream(name) is gen
        assert [gen.random() for _ in range(50)] == oracle.random(50).tolist()


def test_exponential_slow_paths_match_numpy():
    # One draw in about 90 leaves the fast path, one in about 2,200 for
    # the tail beyond the base strip's edge.
    for seed in (0, 1):
        gen = Rng(seed)
        ours = [gen.exponential(2.0) for _ in range(20_000)]
        assert ours == np.random.default_rng(seed).exponential(2.0, 20_000).tolist()
        assert max(ours) > 2.0 * EXP_R


def test_choice_matches_numpy_on_ints_and_lists():
    for seed in range(300):
        ours, theirs = Rng(seed), np.random.default_rng(seed)
        assert ours.choice(12, size=2, replace=False) == theirs.choice(
            12, size=2, replace=False
        ).tolist()
        peers = list(range(100, 100 + 1 + seed % 40))
        size = min(3, len(peers))
        assert ours.choice(peers, size=size, replace=False) == theirs.choice(
            peers, size=size, replace=False
        ).tolist()


def test_unsupported_arguments_raise():
    gen = Rng(0)
    with pytest.raises(NotImplementedError):
        gen.choice(5, size=2)                       # with replacement
    with pytest.raises(NotImplementedError):
        gen.choice(10_001, size=2, replace=False)   # numpy's tail shuffle
    with pytest.raises(NotImplementedError):
        gen.integers(2**32 + 1)
    with pytest.raises(ValueError):
        gen.choice(3, size=4, replace=False)
    with pytest.raises(ValueError):
        gen.integers(5, 5)
    with pytest.raises(ValueError):
        gen.uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        gen.exponential(-1.0)
    with pytest.raises(ValueError):
        Rng(-1)
    assert not hasattr(gen, "normal")


def test_mean_matches_numpy():
    # Lengths past 128 take the pairwise halving; past 8,192, numpy's
    # buffer size, a chunked sum would show.
    for n in list(range(1, 301)) + [1000, 8191, 8192, 8193, 20_000]:
        oracle = np.random.default_rng(n)
        values = (oracle.random(n) * 10.0 ** oracle.integers(-3, 6, n)).tolist()
        assert mean(values) == float(np.mean(values)), n
        counts = oracle.integers(0, 7, n).tolist()
        assert mean(counts) == float(np.mean(counts)), n


def test_runtime_imports_leave_numpy_out():
    """Every repro process starts without numpy: it costs about 0.1 s
    and 12 MB at import, for a few hundred draws a run."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = (
        "import sys; import repro, repro.cli, repro.workloads, "
        "repro.faults.chaos, repro.faults.crashmatrix, repro.analysis; "
        "sys.exit('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
