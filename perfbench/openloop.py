"""The ``serve`` workload: an open-loop load generator over one scheduler.

Requests are the scoring script on 256x64 inputs, prepared once and
served by ``SessionScheduler(n_workers=1)``.  One generator thread (the
main thread) submits each request at its due time, sleeping in between:
a spin-wait would hold the interpreter lock the scheduler's worker needs.
A request's latency runs from its due time, so a late generator or a
stall counts against the requests it delays:

    latency = (submit time - due time) + ticket.telemetry["latency_seconds"]
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import inputs
import reference
import scripts

from repro.compiler import Engine
from repro.serve import SessionScheduler

ROWS, COLS = 256, 64
N_DISTINCT = 64  # distinct request matrices, cycled
MAX_BATCH = 8  # the scheduler's default micro-batch limit


@dataclass
class Sent:
    index: int
    due: float
    submitted: float
    ticket: object
    telemetry: dict | None = None
    ok: bool = False

    @property
    def late(self) -> float:
        return self.submitted - self.due

    @property
    def latency(self) -> float:
        # A request that failed counts as missing any latency limit.
        return self.late + self.telemetry.get("latency_seconds", math.inf)


class Serve:
    name = "serve"

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.engine = None
        self.server = None

    def setup(self, seed: int) -> None:
        rng = inputs.rng_for(seed, 4)
        self.w = inputs.dense(rng, COLS, 1)
        self.xs = [inputs.dense(rng, ROWS, COLS) for _ in range(N_DISTINCT)]
        self.expected = [reference.scoring(x, self.w) for x in self.xs]
        self.engine = Engine(mode="gen")
        self.prepared = self.engine.prepare_script(
            scripts.SCORING_SCRIPT, name="score", batch_inputs=("X",))
        # Warm-up: one specialization per micro-batch size, so every
        # request of the run hits the specialization cache.
        self.prepared.run(self.request(0))
        for size in range(2, MAX_BATCH + 1):
            self.prepared.run_batch([self.request(i) for i in range(size)])
        self.server = SessionScheduler(self.engine, n_workers=1,
                                       max_batch=MAX_BATCH)

    def request(self, index: int) -> dict:
        return {"X": self.xs[index % N_DISTINCT], "w": self.w}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    # -- load ---------------------------------------------------------------
    def open_loop(self, rate: float, n: int, first: int = 0) -> list[Sent]:
        """Send ``n`` requests at ``rate`` per second; wait for all."""
        sent = []
        start = time.perf_counter() + 0.002
        for i in range(n):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted = time.perf_counter()
            ticket = self.server.submit(self.prepared, self.request(first + i))
            sent.append(Sent(first + i, due, submitted, ticket))
        self.wait(sent)
        return sent

    def burst(self, n: int) -> tuple[float, list[Sent]]:
        """Submit ``n`` requests at once; seconds until the last is done."""
        start = time.perf_counter()
        sent = [Sent(i, start, start,
                     self.server.submit(self.prepared, self.request(i)))
                for i in range(n)]
        self.wait(sent)
        return time.perf_counter() - start, sent

    def wait(self, sent: list[Sent]) -> None:
        """Wait for each request, check it against NumPy, drop its result.

        Results of micro-batched requests are views of the stacked
        batch, so holding them would hold every batch of the run.
        """
        for s in sent:
            try:
                result = s.ticket.result(120)
            except Exception:  # a failed request is counted, not fatal
                result = None
            s.ok = result is not None and reference.agrees(
                result, self.expected[s.index % N_DISTINCT], self.rtol)
            s.telemetry = s.ticket.telemetry
            s.ticket = None

    def paired(self, n: int) -> tuple[int, list[float]]:
        """``n`` requests run through the prepared program on this thread,
        each followed by the same math in NumPy; returns the number that
        raised or disagreed with NumPy, and each pair's time ratio.

        Timing the two back to back cancels the host's slower stretches,
        which swamp a NumPy call of a few microseconds otherwise.  The
        scheduler is left out: its thread hand-offs add wake-up jitter of
        the host to every request (the open loop measures them).
        """
        failed, ratios = 0, []
        for i in range(n):
            start = time.perf_counter()
            try:
                result = self.prepared.run(self.request(i))
            except Exception:  # a failed request is counted, not fatal
                failed += 1
                continue
            middle = time.perf_counter()
            reference.scoring(self.xs[i % N_DISTINCT], self.w)
            end = time.perf_counter()
            ratios.append((middle - start) / (end - middle))
            if not reference.agrees(result, self.expected[i % N_DISTINCT], self.rtol):
                failed += 1
        return failed, ratios


def passes(sent: list[Sent], slo_s: float) -> bool:
    """p99 within the limit and no backlog growing over the probe."""
    lat = np.array([s.latency for s in sent])
    quarter = max(1, len(lat) // 4)
    growing = np.median(lat[-quarter:]) > 2.0 * np.median(lat[:quarter]) + 1e-3
    return bool(np.percentile(lat, 99) <= slo_s and not growing)


#: Offered rates of the ladder: 5% steps from 100 to about 6400
#: requests per second.
LADDER = [100.0 * 1.05 ** k for k in range(86)]


def rate_at_slo(workload: Serve, slo_s: float, probe_n: int, deadline: float,
                on_probe=None) -> float:
    """Highest ladder rate that passes, by bisection over the ladder
    (0 when even the lowest rate misses the limit).

    A rate fails only when two probes in a row miss: a stall of the host
    can sink one probe far below capacity, which would end the bisection
    on a rate the program sustains.  Bisection stops at ``deadline``
    (a ``perf_counter`` time), returning the highest rate passed so far.
    """
    first = 0

    def probe(rate: float) -> bool:
        nonlocal first
        sent = workload.open_loop(rate, probe_n, first)
        first += probe_n
        if on_probe is not None:
            on_probe(sent)
        return passes(sent, slo_s)

    lo, hi = -1, len(LADDER)
    while hi - lo > 1 and time.perf_counter() < deadline:
        mid = (lo + hi) // 2
        if probe(LADDER[mid]) or probe(LADDER[mid]):
            lo = mid
        else:
            hi = mid
    return LADDER[lo] if lo >= 0 else 0.0
