"""The load shapes: open-loop latency from due time, closed-loop gaps."""

import threading
import time

import pytest

from loadgen import Client, closed_loop, open_loop


class SleepClient(Client):
    """Takes ``service`` seconds per request; records its requests."""

    opened = 0
    closed = 0
    lock = threading.Lock()

    def __init__(self, service, log):
        self.service = service
        self.log = log
        with SleepClient.lock:
            SleepClient.opened += 1

    def send(self, k):
        time.sleep(self.service)
        if k == 3:
            raise RuntimeError("planted failure")
        self.log.append(k)
        return k

    def close(self):
        with SleepClient.lock:
            SleepClient.closed += 1


def test_open_loop_times_from_due_and_keeps_schedule():
    log = []
    samples = open_loop(lambda: SleepClient(0.002, log), rate=200.0,
                        count=40, threads=2)
    assert [s.index for s in samples] == list(range(40))
    # Due times follow the schedule whatever the service time was.
    gaps = [b.due - a.due for a, b in zip(samples, samples[1:])]
    assert gaps == pytest.approx([1 / 200.0] * 39)
    for s in samples:
        assert s.latency == pytest.approx(s.end - s.due)
        assert s.latency >= s.service >= 0.002
        assert s.lateness >= 0.0
    assert not samples[3].ok and isinstance(samples[3].error, RuntimeError)
    assert sorted(log) == [k for k in range(40) if k != 3]


def test_open_loop_charges_a_backlog_to_later_requests():
    # One connection, service 20 ms, offered every 5 ms: the queue grows,
    # so latency from due (and lateness) rise request after request.
    samples = open_loop(lambda: SleepClient(0.020, []), rate=200.0,
                        count=12, threads=1)
    assert samples[-1].lateness > samples[1].lateness > 0.0
    assert samples[-1].latency > 0.15
    assert samples[-1].service < 0.05
    assert SleepClient.opened == SleepClient.closed


def test_open_loop_validates_its_shape():
    with pytest.raises(ValueError):
        open_loop(lambda: SleepClient(0, []), rate=0.0, count=1)


def test_closed_loop_separates_op_time_from_harness_gaps():
    def op(k):
        time.sleep(0.003)
        if k == 2:
            raise ValueError("planted failure")
        return k

    def after(sample):
        time.sleep(0.004)  # the untimed check

    samples = closed_loop(op, 0.1, first=5, after=after)
    assert samples[0].index == 5
    assert [s.index for s in samples] == list(range(5, 5 + len(samples)))
    assert all(0.003 <= s.service < 0.004 + 0.02 for s in samples)
    assert all(s.lateness >= 0.004 for s in samples[1:])
    assert all(s.ok for s in samples)  # op 2 never ran: k starts at 5
    failing = closed_loop(op, 0.02, first=2)
    assert not failing[0].ok and isinstance(failing[0].error, ValueError)
