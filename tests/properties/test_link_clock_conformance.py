"""Property: the live egress never outruns its link by more than one granule.

For any arrival pattern, packet sizes, link capacity and timer lateness, the
bytes the drain's link clock releases in any window ``[t, t + T]`` stay
within ``capacity * (T + TIMER_GRANULE_S) / 8`` plus one packet — which
also bounds the long-run rate by the capacity.  ``scripted_link`` is the
scripted-time drain of ``tests/conftest.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.serve import TIMER_GRANULE_S

capacities = st.sampled_from([56e3, 400e3, 10e6, 100e6, 1e9, 40e9])
#: Gaps between arrivals: mostly none (a backlog), sometimes long idle time.
gaps = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.01),
                 st.floats(min_value=0.0, max_value=7200.0))
sizes = st.integers(min_value=1, max_value=9000)
lateness = st.floats(min_value=0.0, max_value=0.005)


@settings(max_examples=150, deadline=None)
@given(capacity_bps=capacities, late=lateness,
       traffic=st.lists(st.tuples(gaps, sizes), min_size=1, max_size=120))
def test_any_window_conforms_to_capacity_plus_one_granule(
        scripted_link, capacity_bps, late, traffic):
    link = scripted_link(capacity_bps, late=late)
    arrivals, now = [], 0.0
    for gap, size in traffic:
        now += gap
        arrivals.append(now)
        link.offer(now, size)

    departures = [at for at, _ in link.releases]
    assert departures == sorted(departures)
    assert all(left >= came for left, came in zip(departures, arrivals))
    # Relative slack for float rounding of sums of transmit times.
    total = sum(size for _, size in link.releases)
    assert link.worst_window_excess_bytes() <= 1e-9 * total + 1e-6
    # However long the link idled, the credit is one granule at most.
    assert link.clock.free_at >= departures[-1] - TIMER_GRANULE_S
