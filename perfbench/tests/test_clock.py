"""The host-speed sampler behind the times of short jobs."""

import signal
from time import perf_counter

import pytest

import clock


def synthetic(times, durations):
    s = clock.Sampler()
    s.times, s.durations = list(times), list(durations)
    return s


def test_speed_uses_the_samples_inside_a_long_window():
    s = synthetic(range(20), [2.0] * 10 + [1.0] * 10)
    assert s.speed(10, 19) == pytest.approx(clock.REFERENCE_S / 1.0)
    assert s.speed(0, 9) == pytest.approx(clock.REFERENCE_S / 2.0)


def test_speed_falls_back_to_the_samples_around_a_short_window():
    s = synthetic(range(20), [float(t) for t in range(20)])
    # no sample lies in [12.2, 12.4]; the five around it are 11..15
    assert s.speed(12.2, 12.4) == pytest.approx(clock.REFERENCE_S / 13.0)
    assert s.speed(-5, -4) == pytest.approx(clock.REFERENCE_S / 2.0)
    assert s.speed(50, 51) == pytest.approx(clock.REFERENCE_S / 17.0)


def test_sampler_interrupts_work_and_restores_the_timer():
    s = clock.Sampler()
    before = signal.getsignal(signal.SIGALRM)
    s.start()
    try:
        end = perf_counter() + 5 * clock.INTERVAL_S
        while perf_counter() < end:
            sum(range(1000))
    finally:
        s.stop()
    assert len(s.durations) >= 3
    assert s.stolen == pytest.approx(sum(s.durations))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
