"""Graceful shutdown: drains, journals, and loses zero completed work.

Completion inside the farm is journal-first — an evaluation is appended
to the checkpoint journal before any waiter sees it — so an interrupt at
*any* instant loses nothing that finished.  The tests prove it twice:
in-process (cancel mid-batch, resume from the journal) and with a real
SIGINT delivered to a real farm process blocked on a hung worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.resilience import (
    CheckpointJournal,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
)
from repro.dse.space import DesignPoint

SIZES = {"sumrows": {"m": 1024, "n": 64}}


def _points(pars):
    return [DesignPoint.make(tile_sizes={"m": 64, "n": 64}, par=par) for par in pars]


class TestInProcessShutdown:
    @pytest.mark.asyncio
    async def test_graceful_close_drains_and_journals_everything(self, tmp_path):
        from repro.serve import CompileFarm

        journal_path = tmp_path / "farm.journal"
        points = _points((1, 2, 4, 8))
        farm = CompileFarm(
            ["sumrows"],
            sizes=SIZES,
            workers=1,
            resilience=ResiliencePolicy(checkpoint=journal_path, retries=0),
        )
        await farm.start()
        batch = await farm.submit([("sumrows", p) for p in points])
        await farm.aclose()  # drain=True: everything admitted completes
        responses = await batch.gather()
        assert all(r.status == "evaluated" and r.ok for r in responses)
        assert len(CheckpointJournal(journal_path).load()) == len(points)

    @pytest.mark.asyncio
    async def test_cancelled_shutdown_resumes_without_reevaluation(self, tmp_path):
        from repro.serve import CompileFarm

        journal_path = tmp_path / "farm.journal"
        policy = ResiliencePolicy(checkpoint=journal_path, retries=0)
        points = _points((1, 2, 4, 8, 16, 32))

        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1, resilience=policy)
        await farm.start()
        batch = await farm.submit([("sumrows", p) for p in points])
        # Let some evaluations finish, then pull the plug on the rest.
        stream = batch.stream()
        await stream.__anext__()
        await stream.__anext__()
        await stream.aclose()
        await farm.aclose(drain=False)
        completed = farm.stats.completed
        assert completed >= 2
        journaled = CheckpointJournal(journal_path).load()
        # Every completed evaluation is durable; nothing half-written.
        assert len(journaled) == completed

        # Resume: a fresh farm over the same journal replays the completed
        # evaluations and schedules only the remainder.
        ANALYSIS_CACHE.clear()
        resumed = CompileFarm(["sumrows"], sizes=SIZES, workers=1, resilience=policy)
        async with resumed:
            responses = await (
                await resumed.submit([("sumrows", p) for p in points])
            ).gather()
        assert all(r.ok for r in responses)
        assert resumed.stats.journal_hits == completed
        assert resumed.stats.scheduled == len(points) - completed
        # Zero re-evaluation of completed points, by the evaluation counter.
        assert resumed.stats.supervision.evaluations == len(points) - completed
        assert len(CheckpointJournal(journal_path).load()) == len(points)


def _run_interruptible_farm(journal_path, sizes, ready):
    """Child body: 3 quick points plus one hung worker, then SIGINT arrives."""
    import asyncio

    from repro.serve import CompileFarm

    ANALYSIS_CACHE.clear()
    points = _points((1, 2, 4, 8))
    hang = FaultPlan.make(
        {("sumrows", points[-1].label): FaultSpec(kind="hang", times=-1, hang_seconds=60)}
    )
    policy = ResiliencePolicy(
        checkpoint=journal_path, timeout=None, retries=0, fault_plan=hang
    )

    async def main():
        farm = CompileFarm(["sumrows"], sizes=sizes, workers=2, resilience=policy)
        async with farm:
            batch = await farm.submit([("sumrows", p) for p in points])
            done = 0
            async for response in batch.stream():
                if response.ok:
                    done += 1
                if done == len(points) - 1:
                    # Everything but the hung point is complete and
                    # journaled; tell the parent to interrupt us now.
                    ready.set()

    asyncio.run(main())


class TestSigintShutdown:
    def test_sigint_mid_batch_loses_zero_completed_evaluations(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        journal_path = tmp_path / "farm.journal"
        ready = context.Event()
        child = context.Process(
            target=_run_interruptible_farm, args=(str(journal_path), SIZES, ready)
        )
        child.start()
        try:
            assert ready.wait(timeout=120), "farm never reached the interrupt point"
            time.sleep(0.2)  # let the child settle into the blocked await
            os.kill(child.pid, signal.SIGINT)
            child.join(timeout=60)
            assert child.exitcode is not None, "farm did not die on SIGINT"
        finally:
            if child.is_alive():
                child.terminate()
                child.join(timeout=30)

        journaled = CheckpointJournal(journal_path).load()
        assert len(journaled) == 3  # the three completed; the hung one never

        # Resume in this process: journal replay serves the completed
        # points with zero re-evaluation; only the interrupted point runs.
        import asyncio

        from repro.serve import CompileFarm

        points = _points((1, 2, 4, 8))
        policy = ResiliencePolicy(checkpoint=journal_path, retries=0)

        async def resume():
            farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1, resilience=policy)
            async with farm:
                return (
                    await (await farm.submit([("sumrows", p) for p in points])).gather(),
                    farm.stats,
                )

        responses, stats = asyncio.run(resume())
        assert all(r.ok for r in responses)
        assert stats.journal_hits == 3
        assert stats.scheduled == 1
        assert stats.supervision.evaluations == 1
        assert [r.status for r in responses] == [
            "journal",
            "journal",
            "journal",
            "evaluated",
        ]
