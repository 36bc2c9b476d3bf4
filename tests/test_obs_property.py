"""Property-based tests for LatencyHistogram: the quantile contract
(monotone in q, clamped to the [min, max] envelope), including the underflow
and overflow bins; and for MetricsRegistry's phase fold, which must give the
exact floats of summing each span's phases first."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LatencyHistogram, MetricsRegistry, Span
from tests.helpers import phase_seconds

# spans underflow (< 1e-7 s), all ten decades, and overflow (> 1e3 s)
latencies = st.floats(
    min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
)
streams = st.lists(latencies, min_size=0, max_size=200)
quantiles = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def observe_all(values):
    hist = LatencyHistogram()
    for v in values:
        hist.observe(v)
    return hist


@settings(max_examples=200, deadline=None)
@given(streams, st.lists(quantiles, min_size=2, max_size=10))
def test_quantile_monotone_and_within_envelope(xs, qs):
    hist = observe_all(xs)
    if not xs:
        assert all(hist.quantile_s(q) == 0.0 for q in qs)
        return
    for q in qs:
        v = hist.quantile_s(q)
        assert hist.min_s <= v <= hist.max_s
    for lo, hi in zip(sorted(qs), sorted(qs)[1:]):
        assert hist.quantile_s(lo) <= hist.quantile_s(hi)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=9e-8), min_size=1, max_size=50))
def test_all_underflow_quantiles_stay_in_envelope(xs):
    # every sample lands in the underflow bin; the bin edge (1e-7) is above
    # max_s, so the clamp must pull estimates back inside [min, max]
    hist = observe_all(xs)
    for q in (0.0, 0.5, 1.0):
        assert hist.min_s <= hist.quantile_s(q) <= hist.max_s


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=2e3, max_value=1e6), min_size=1, max_size=50))
def test_all_overflow_quantiles_stay_in_envelope(xs):
    # every sample lands in the overflow bin, which has no finite upper
    # edge; quantiles must fall back to the exact envelope
    hist = observe_all(xs)
    for q in (0.0, 0.5, 1.0):
        assert hist.min_s <= hist.quantile_s(q) <= hist.max_s


# a span's phases: names drawn from a small set, so some repeat in one span
phases = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), latencies), min_size=0, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["read", "update"]), phases), max_size=30))
def test_phase_fold_equals_summing_each_span_first(spans):
    """observe_span folds children straight in; the reference sums each
    span's repeats first (``phase_seconds``), then adds the sum."""
    reg = MetricsRegistry()
    total: dict[tuple[str, str], float] = {}
    count: dict[tuple[str, str], int] = {}
    for op, children in spans:
        root = Span(op, 0.0)
        for name, seconds in children:
            root.child(name, seconds)
        root.finish(sum(s for _, s in children))
        reg.observe_span(root)
        for name, seconds in phase_seconds(root).items():
            total[(op, name)] = total.get((op, name), 0.0) + seconds
            count[(op, name)] = count.get((op, name), 0) + 1
    for op in ("read", "update"):
        want = {
            name: total[(o, name)] / count[(o, name)]
            for (o, name) in sorted(total)
            if o == op
        }
        assert reg.phase_breakdown(op) == want
