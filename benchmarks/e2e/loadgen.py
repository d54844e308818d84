"""Load shapes: a closed loop for library calls, an open loop for HTTP.

* :func:`closed_loop` — one caller issues the next op only after the
  previous one returned, for a fixed wall-clock window.  Lateness is the
  caller's own gap between ops (the untimed per-op check), so a slow
  harness shows up as generator overhead, not as system latency.
* :func:`open_loop` — requests fall due on a fixed schedule
  (``t0 + k / rate``) whatever the system does; ``threads`` workers each
  own one client (one keep-alive connection) and take the next due
  request.  Latency is timed from the **due** time, so a stall also
  charges the wait it imposes on every later request; lateness
  (send start minus due time) reports how far the generator fell behind.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

#: Slack before the first open-loop request falls due, so every worker
#: has opened its connection.
LEAD_S = 0.05
#: How long a finished schedule may take to drain its workers.
JOIN_TIMEOUT_S = 120.0


@dataclass
class Sample:
    """One op or request: when it was due, sent and finished."""

    index: int
    due: float
    start: float
    end: float
    outcome: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """Whether the call returned (a failed check is judged later)."""
        return self.error is None

    @property
    def latency(self) -> float:
        """Seconds from due time to completion."""
        return self.end - self.due

    @property
    def service(self) -> float:
        """Seconds from send to completion."""
        return self.end - self.start

    @property
    def lateness(self) -> float:
        """Seconds the generator sent after the due time."""
        return self.start - self.due


def closed_loop(
    op: Callable[[int], Any],
    seconds: float,
    first: int = 0,
    after: Optional[Callable[[Sample], None]] = None,
) -> List[Sample]:
    """Call ``op(k)`` back to back for ``seconds``; ``k`` counts from
    ``first``.  Each op falls due when the previous one returned, so its
    ``service`` time is the op alone and its ``lateness`` is the time the
    ``after`` hook (the untimed check) spent in between."""
    clock = time.perf_counter
    samples: List[Sample] = []
    deadline = clock() + seconds
    due = clock()
    k = first
    while True:
        start = clock()
        if start >= deadline:
            return samples
        sample = Sample(k, due, start, start)
        try:
            sample.outcome = op(k)
        except Exception as exc:  # counted as a failed op, never fatal
            sample.error = exc
        sample.end = due = clock()
        samples.append(sample)
        if after is not None:
            after(sample)
        k += 1


class Client:
    """What :func:`open_loop` drives: ``send(k)`` returns the outcome of
    request ``k``; ``close()`` releases the connection."""

    def send(self, k: int) -> Any:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release the client's connection."""


def open_loop(
    make_client: Callable[[], Client],
    rate: float,
    count: int,
    threads: int = 2,
) -> List[Sample]:
    """Send requests ``0..count-1`` due at ``t0 + k / rate``; returns
    one :class:`Sample` per request in index order."""
    if rate <= 0 or count < 1 or threads < 1:
        raise ValueError("need rate > 0, count >= 1 and threads >= 1")
    lock = threading.Lock()
    pending = iter(range(count))
    samples: List[Optional[Sample]] = [None] * count
    t0 = time.perf_counter() + LEAD_S

    def worker() -> None:
        client = make_client()
        try:
            while True:
                with lock:
                    k = next(pending, None)
                if k is None:
                    return
                due = t0 + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sample = Sample(k, due, time.perf_counter(), 0.0)
                try:
                    sample.outcome = client.send(k)
                except Exception as exc:  # a failed request, never fatal
                    sample.error = exc
                sample.end = time.perf_counter()
                samples[k] = sample
        finally:
            client.close()

    workers = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(JOIN_TIMEOUT_S)
    if any(thread.is_alive() for thread in workers):
        raise TimeoutError("open-loop workers did not finish in time")
    return [s for s in samples if s is not None]
