"""The blocking facade over a :class:`~repro.serve.farm.CompileFarm`.

:class:`SyncClient` runs the farm on a private background event-loop
thread and exposes blocking methods, which is what synchronous callers —
most importantly :class:`~repro.dse.engine.MultiBenchmarkExplorer` via its
``farm=`` argument — plug in.  Callers already living on an event loop use
the farm itself (``await farm.submit(...)``, then the batch's ``stream``
or ``gather``).

The facade re-exports the farm's compatibility surface
(``benchmark_names``, ``lane_sizes``, ``board_name``, ``workers``,
``stats``) so the explorer's pre-flight validation sees through it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.errors import FarmError
from repro.serve.farm import CompileFarm, FarmStats
from repro.serve.protocol import CompileRequest, CompileResponse

__all__ = ["SyncClient"]

RequestLike = Union[CompileRequest, Tuple[str, DesignPoint]]


class SyncClient:
    """Blocking facade: the farm lives on a background event-loop thread.

    Wrap a farm that is not yet started::

        with SyncClient(CompileFarm(["matmul"], workers=4)) as client:
            results = client.evaluate([("matmul", point)])

    Every public method marshals onto the loop thread and blocks on the
    answer.  The farm's serial-fallback path runs evaluations on that
    loop thread, so a degraded farm blocks its sync callers for the
    duration of each evaluation — the documented trade for a thread-safe
    analysis cache.
    """

    def __init__(self, farm: CompileFarm, start_timeout: float = 60.0) -> None:
        self.farm = farm
        self._start_timeout = start_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # -- the farm's compatibility surface, passed through -------------------
    @property
    def benchmark_names(self) -> Tuple[str, ...]:
        return self.farm.benchmark_names

    def lane_sizes(self, name: str) -> Optional[Dict[str, int]]:
        return self.farm.lane_sizes(name)

    @property
    def board_name(self) -> str:
        return self.farm.board_name

    @property
    def workers(self) -> int:
        return self.farm.workers

    @property
    def stats(self) -> FarmStats:
        return self.farm.stats

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "SyncClient":
        if self._started:
            raise FarmError("sync client already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client", daemon=True
        )
        self._thread.start()
        try:
            self._call(self.farm.start())
        except Exception:
            self._stop_loop()
            raise
        self._started = True
        return self

    def close(self, drain: bool = True) -> None:
        if not self._started:
            self._stop_loop()
            return
        try:
            self._call(self.farm.aclose(drain=drain))
        finally:
            self._started = False
            self._stop_loop()

    def _stop_loop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=self._start_timeout)
            self._loop.close()
            self._loop = None
            self._thread = None

    def __enter__(self) -> "SyncClient":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, coroutine):
        if self._loop is None:
            raise FarmError("sync client not started")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    # -- request surface -----------------------------------------------------
    async def _gather(self, requests: Sequence[RequestLike]) -> List[CompileResponse]:
        batch = await self.farm.submit(requests)
        return await batch.gather()

    def submit(self, requests: Sequence[RequestLike]) -> List[CompileResponse]:
        """Submit a batch and block for its responses, submission-ordered."""
        return self._call(self._gather(requests))

    def stream(self, requests: Sequence[RequestLike]):
        """Submit a batch and yield responses in completion order.

        The batch is admitted before this returns; iteration then blocks
        per response.
        """
        batch = self._call(self.farm.submit(requests))
        stream = batch.stream()
        try:
            while True:
                try:
                    yield self._call(stream.__anext__())
                except StopAsyncIteration:
                    return
        finally:
            self._call(stream.aclose())

    def evaluate(
        self,
        tasks: Sequence[Tuple[str, DesignPoint]],
        cycle_model: Optional[str] = None,
    ) -> List[PointResult]:
        """Evaluate (benchmark, point) tasks, results in task order.

        The explorer's ``farm=`` hook: every response must carry a result
        (failed evaluations come back as ``failed=True`` records, exactly
        like the supervised evaluator's quarantine), so a missing result —
        a cancelled response — raises :class:`~repro.errors.FarmError`.
        """
        responses = self.submit(
            [
                CompileRequest(benchmark=bench, point=point, cycle_model=cycle_model)
                for bench, point in tasks
            ]
        )
        results: List[PointResult] = []
        for response in responses:
            if response.result is None:
                raise FarmError(
                    f"request {response.request_id} for {response.benchmark} "
                    f"returned no result ({response.status}): {response.error}"
                )
            results.append(response.result)
        return results
