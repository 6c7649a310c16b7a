"""Fault-tolerant DSE execution: supervision, checkpoint-resume, fault injection.

The invariant under test everywhere: point evaluation is a pure function of
the design point, so a run that crashes, hangs, corrupts results or gets
interrupted must — after recovery — produce results *bit-identical* to the
fault-free run, with anything unrecoverable quarantined and reported rather
than silently dropped.
"""

import pickle
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import MultiBenchmarkExplorer, PointResult, explore
from repro.dse.resilience import (
    CheckpointJournal,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    SupervisedEvaluator,
    corrupt_result,
    validate_point_result,
)
from repro.dse.search import Strategy, hypervolume
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import (
    EvaluationTimeoutError,
    TransientEvaluationError,
    WorkerCrashError,
)

GEMM_SIZES = {"m": 256, "n": 256, "p": 256}

#: The paper's six benchmarks at the harness's small evaluation sizes.
BENCH_SIZES = {
    "outerprod": {"m": 1024, "n": 1024},
    "sumrows": {"m": 4096, "n": 256},
    "gemm": {"m": 256, "n": 256, "p": 256},
    "tpchq6": {"n": 262144},
    "gda": {"n": 4096, "d": 16},
    "kmeans": {"n": 8192, "k": 16, "d": 16},
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _gemm_space():
    space = DesignSpace()
    space.add(DesignPoint.make(None, par=16))
    for tiles in ({"m": 64, "n": 64, "p": 64}, {"m": 64, "n": 64, "p": 128}):
        for meta in (False, True):
            space.add(DesignPoint.make(tiles, par=16, metapipelining=meta))
    return space


class TwoBatchStrategy(Strategy):
    """Yields the space in two batches — gives interrupts a round boundary."""

    name = "two-batch"

    def search(self, space, rng):
        points = list(space)
        yield points[:2]
        yield points[2:]


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_seeded_plan_is_deterministic_and_picklable(self):
        points = {
            "gemm": [DesignPoint.make({"m": t}, par=4) for t in (16, 32, 64, 128)],
            "sumrows": [DesignPoint.make({"m": t}, par=4) for t in (16, 32)],
        }
        one = FaultPlan.seeded(points, seed=5, crashes=1, hangs=1, errors=1)
        two = FaultPlan.seeded(points, seed=5, crashes=1, hangs=1, errors=1)
        assert one == two
        assert len(one) == 3
        assert pickle.loads(pickle.dumps(one)) == one
        # Victims come from the population handed in.
        population = {(b, p.label) for b, pts in points.items() for p in pts}
        assert {key for key, _ in one.faults} <= population

    def test_seeded_plan_rejects_more_faults_than_points(self):
        points = {"gemm": [DesignPoint.make(None, par=4)]}
        with pytest.raises(ValueError, match="victims"):
            FaultPlan.seeded(points, crashes=1, hangs=1, errors=1)

    def test_unknown_fault_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_transient_spec_applies_to_leading_attempts_only(self):
        spec = FaultSpec("error", times=2)
        assert spec.applies(1) and spec.applies(2) and not spec.applies(3)
        forever = FaultSpec("error", times=-1)
        assert forever.applies(1) and forever.applies(99)

    def test_in_process_firing_raises_the_equivalent_exception(self):
        point = DesignPoint.make(None, par=4)
        plans = {
            kind: FaultPlan.make({("gemm", point.label): FaultSpec(kind)})
            for kind in ("crash", "hang", "error", "corrupt")
        }
        with pytest.raises(WorkerCrashError, match="injected"):
            plans["crash"].fire("gemm", point.label, 1, in_worker=False)
        with pytest.raises(EvaluationTimeoutError, match="injected"):
            plans["hang"].fire("gemm", point.label, 1, in_worker=False)
        with pytest.raises(TransientEvaluationError, match="injected"):
            plans["error"].fire("gemm", point.label, 1, in_worker=False)
        assert plans["corrupt"].fire("gemm", point.label, 1, in_worker=False) == "corrupt"
        # Attempt 2 of a transient fault: nothing fires.
        assert plans["crash"].fire("gemm", point.label, 2, in_worker=False) is None
        # Unscheduled points never fire.
        assert plans["crash"].fire("other", point.label, 1, in_worker=False) is None


class TestValidation:
    def test_corrupt_result_is_flagged(self):
        point = DesignPoint.make({"m": 64}, par=4)
        good = PointResult(point=point, cycles=100.0, seconds=1e-6, logic=10.0)
        assert validate_point_result(good, point) is None
        assert "cycles" in validate_point_result(corrupt_result(good), point)
        assert "PointResult" in validate_point_result("boom", point)
        other = DesignPoint.make({"m": 128}, par=4)
        assert "wanted" in validate_point_result(good, other)
        negative = replace(good, seconds=-1.0)
        assert "seconds" in validate_point_result(negative, point)

    def test_recovered_result_stays_equal_to_fault_free_twin(self):
        # The supervision bookkeeping (failed/failure/attempts) must not
        # participate in equality, or retried runs stop being bit-identical.
        point = DesignPoint.make({"m": 64}, par=4)
        clean = PointResult(point=point, cycles=100.0)
        retried = replace(clean, attempts=3)
        assert clean == retried

    def test_policy_validates_knobs(self):
        with pytest.raises(ValueError, match="retries"):
            ResiliencePolicy(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            ResiliencePolicy(timeout=0.0)

    def test_backoff_grows_exponentially_and_jitter_is_seeded(self):
        policy = ResiliencePolicy(backoff=0.1)

        def delays(seed):
            rng = np.random.default_rng(seed)
            return [policy.backoff_seconds(attempt, rng) for attempt in (1, 2, 3)]

        # Doubling per retry, each delay jittered by at most ±25%.
        for attempt, delay in zip((1, 2, 3), delays(0)):
            assert delay == pytest.approx(0.1 * 2 ** (attempt - 1), rel=0.25)
        assert delays(7) == delays(7)


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class TestCheckpointJournal:
    def _result(self, cycles):
        return PointResult(point=DesignPoint.make({"m": 64}, par=4), cycles=cycles)

    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.journal")
        journal.append(b"a" * 16, self._result(10.0))
        journal.append(b"b" * 16, self._result(20.0))
        journal.close()
        entries = CheckpointJournal(journal.path).load()
        assert set(entries) == {b"a" * 16, b"b" * 16}
        assert entries[b"b" * 16].cycles == 20.0

    def test_missing_journal_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.journal").load() == {}

    def test_truncated_tail_keeps_intact_prefix(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.journal")
        journal.append(b"a" * 16, self._result(10.0))
        journal.append(b"b" * 16, self._result(20.0))
        journal.close()
        blob = journal.path.read_bytes()
        journal.path.write_bytes(blob[:-7])  # killed mid-write
        reader = CheckpointJournal(journal.path)
        with pytest.warns(RuntimeWarning, match="corrupt tail"):
            entries = reader.load()
        assert list(entries) == [b"a" * 16]
        assert reader.corrupt_records == 1

    def test_append_after_torn_tail_is_read_back(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.journal")
        journal.append(b"a" * 16, self._result(10.0))
        journal.append(b"b" * 16, self._result(20.0))
        journal.path.write_bytes(journal.path.read_bytes()[:-20])  # killed mid-write
        with pytest.warns(RuntimeWarning, match="corrupt tail"):
            assert list(journal.load()) == [b"a" * 16]
        journal.append(b"c" * 16, self._result(30.0))
        journal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the torn bytes are gone
            entries = CheckpointJournal(journal.path).load()
        assert list(entries) == [b"a" * 16, b"c" * 16]
        assert entries[b"c" * 16].cycles == 30.0

    @given(
        count=st.integers(1, 5),
        cut=st.integers(0, 600),
        flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_damaged_journal_loads_a_prefix_and_stays_appendable(self, count, cut, flips):
        written = [(bytes([i]) * 16, self._result(float(i))) for i in range(count)]
        extra = (b"z" * 16, self._result(99.0))
        with tempfile.TemporaryDirectory() as tmp:
            journal = CheckpointJournal(Path(tmp) / "run.journal")
            for digest, result in written:
                journal.append(digest, result)
            blob = bytearray(journal.path.read_bytes())
            del blob[max(0, len(blob) - cut) :]
            for position, mask in flips:
                if blob:
                    blob[position % len(blob)] ^= mask
            journal.path.write_bytes(bytes(blob))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                loaded = list(journal.load().items())
            assert loaded == written[: len(loaded)]
            journal.append(*extra)
            journal.close()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = list(CheckpointJournal(journal.path).load().items())
            assert again == loaded + [extra]

    def test_one_append_handle_until_close(self, tmp_path, monkeypatch):
        opened = []
        real_open = Path.open

        def spy(path, mode="r", *args, **kwargs):
            if mode == "ab":
                opened.append(path)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spy)
        journal = CheckpointJournal(tmp_path / "nested" / "run.journal")
        for index in range(3):
            journal.append(bytes([index]) * 16, self._result(float(index)))
            # Flushed per record: a reader sees it while the handle is open.
            assert len(CheckpointJournal(journal.path).load()) == index + 1
        assert opened == [journal.path]
        journal.close()
        journal.append(b"z" * 16, self._result(9.0))
        journal.close()
        assert len(opened) == 2
        assert len(CheckpointJournal(journal.path).load()) == 4

    def test_flipped_byte_drops_the_record(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.journal")
        journal.append(b"a" * 16, self._result(10.0))
        journal.close()
        blob = bytearray(journal.path.read_bytes())
        blob[-1] ^= 0xFF
        journal.path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="corrupt tail"):
            assert CheckpointJournal(journal.path).load() == {}


# ---------------------------------------------------------------------------
# The supervisor in isolation (no compiler involved)
# ---------------------------------------------------------------------------


class TestSupervisedEvaluator:
    def _task(self):
        return ("gemm", DesignPoint.make({"m": 64}, par=4))

    def test_transient_failure_is_retried_to_success(self):
        task = self._task()
        calls = []

        def compute(t):
            calls.append(t)
            if len(calls) < 3:
                raise TransientEvaluationError("flaky")
            return PointResult(point=t[1], cycles=42.0)

        policy = ResiliencePolicy(retries=2, backoff=0.0)
        with SupervisedEvaluator(policy, compute) as evaluator:
            results = evaluator.evaluate([task])
        assert results[0].cycles == 42.0 and not results[0].failed
        assert len(calls) == 3
        assert evaluator.stats.retries == 2 and evaluator.stats.recovered == 1

    def test_deterministic_failure_is_quarantined_once(self):
        task = self._task()
        calls = []

        def compute(t):
            calls.append(t)
            raise TransientEvaluationError("always broken")

        policy = ResiliencePolicy(retries=1, backoff=0.0)
        with SupervisedEvaluator(policy, compute) as evaluator:
            first = evaluator.evaluate([task])
            again = evaluator.evaluate([task])
        assert first[0].failed and "always broken" in first[0].failure
        assert again[0] is first[0]  # served from the quarantine memo
        assert len(calls) == 2  # initial + 1 retry; nothing on re-proposal
        assert evaluator.stats.quarantined == 1

    def test_corrupt_compute_output_is_rejected_then_recovered(self):
        task = self._task()
        calls = []

        def compute(t):
            calls.append(t)
            result = PointResult(point=t[1], cycles=10.0)
            return corrupt_result(result) if len(calls) == 1 else result

        policy = ResiliencePolicy(retries=1, backoff=0.0)
        with SupervisedEvaluator(policy, compute) as evaluator:
            results = evaluator.evaluate([task])
        assert not results[0].failed and results[0].cycles == 10.0
        assert evaluator.stats.recovered == 1


# ---------------------------------------------------------------------------
# explore() under faults: every strategy, bit-identical recovery
# ---------------------------------------------------------------------------


class TestExploreUnderFaults:
    @pytest.mark.parametrize("strategy", ["exhaustive", "annealing"])
    def test_faulted_search_matches_fault_free_run(self, strategy):
        space = _gemm_space()
        base = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            strategy=strategy, search_seed=7,
        )
        assert len(base.evaluated) >= 3
        victims = [r.point.label for r in base.evaluated[:3]]
        plan = FaultPlan.make({
            ("gemm", victims[0]): FaultSpec("crash"),
            ("gemm", victims[1]): FaultSpec("hang"),
            ("gemm", victims[2]): FaultSpec("corrupt"),
        })
        faulted = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            strategy=strategy, search_seed=7,
            resilience=ResiliencePolicy(retries=2, backoff=0.0, fault_plan=plan),
        )
        assert faulted.evaluated == base.evaluated  # bit-identical trajectory
        assert not faulted.quarantined and not faulted.interrupted
        # Identical result sets ⇒ identical default reference corners, so
        # the fronts' hypervolumes must agree exactly.
        assert hypervolume(faulted.evaluated) == pytest.approx(
            hypervolume(base.evaluated)
        )
        assert faulted.supervision["recovered"] == 3
        assert faulted.supervision["retries"] >= 3

    def test_unrecoverable_point_is_quarantined_and_reported(self):
        space = _gemm_space()
        victim = list(space)[1]
        plan = FaultPlan.make({("gemm", victim.label): FaultSpec("error", times=-1)})
        result = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            resilience=ResiliencePolicy(retries=1, backoff=0.0, fault_plan=plan),
        )
        assert [q.point.label for q in result.quarantined] == [victim.label]
        assert result.quarantined[0].failed
        assert "injected" in result.quarantined[0].failure
        assert result.quarantined[0].attempts == 2
        # Never silently dropped: the summary names it.
        assert "quarantined" in result.summary()
        assert victim.label in result.summary()
        # And never allowed to poison the front either.
        assert victim.label not in [r.point.label for r in result.evaluated]

    def test_point_failing_inside_a_batch_is_quarantined(self):
        """Supervision is on by default: a point that raises inside the
        batched evaluator is retried alone and quarantined, never fatal."""
        space = _gemm_space()
        bad = DesignPoint.make({"m": 0, "n": 64, "p": 64}, par=16)
        space.add(bad)
        result = explore("gemm", sizes=GEMM_SIZES, space=space, prune=False)
        assert [q.point for q in result.quarantined] == [bad]
        assert result.quarantined[0].attempts == 3  # ResiliencePolicy().retries == 2
        assert "ConfigurationError" in result.quarantined[0].failure
        assert len(result.evaluated) == len(space) - 1

    def test_pool_spawn_failure_degrades_to_serial(self, monkeypatch):
        import repro.dse.engine as engine

        space = _gemm_space()
        base = explore("gemm", sizes=GEMM_SIZES, space=space, prune=False)

        class BrokenContext:
            def Pool(self, *args, **kwargs):
                raise RuntimeError("no forks today")

        monkeypatch.setattr(engine, "pool_context", lambda: BrokenContext())
        ANALYSIS_CACHE.clear()
        with pytest.warns(RuntimeWarning, match="serial"):
            default_policy = explore(
                "gemm", sizes=GEMM_SIZES, space=space, prune=False, workers=2
            )
        assert default_policy.evaluated == base.evaluated
        assert default_policy.supervision["serial_fallback"] == 1
        ANALYSIS_CACHE.clear()
        with pytest.warns(RuntimeWarning, match="serial"):
            supervised = explore(
                "gemm", sizes=GEMM_SIZES, space=space, prune=False, workers=2,
                resilience=ResiliencePolicy(retries=1, backoff=0.0),
            )
        assert supervised.evaluated == base.evaluated
        assert supervised.supervision["serial_fallback"] == 1

    @pytest.mark.parametrize("explicit_policy", [False, True])
    def test_keyboard_interrupt_returns_partial_results(
        self, monkeypatch, explicit_policy
    ):
        import repro.dse.batch as batch

        real = batch.evaluate_point_batch
        calls = {"n": 0}

        def interrupting(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # the second batch
                raise KeyboardInterrupt()
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "evaluate_point_batch", interrupting)
        policy = ResiliencePolicy(retries=0, backoff=0.0) if explicit_policy else None
        result = explore(
            "gemm", sizes=GEMM_SIZES, space=_gemm_space(), prune=False,
            strategy=TwoBatchStrategy(), resilience=policy,
        )
        assert result.interrupted
        assert len(result.evaluated) == 2  # the completed first batch
        assert "INTERRUPTED" in result.summary()


# ---------------------------------------------------------------------------
# Checkpoint/resume through explore()
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    def test_resume_skips_every_journaled_point(self, tmp_path):
        checkpoint = tmp_path / "gemm.journal"
        space = _gemm_space()
        partial = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False, max_evaluations=2,
            resilience=ResiliencePolicy(checkpoint=checkpoint),
        )
        assert len(partial.evaluated) == 2
        assert checkpoint.exists()
        ANALYSIS_CACHE.clear()
        resumed = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            resilience=ResiliencePolicy(checkpoint=checkpoint),
        )
        assert resumed.resumed == 2
        # Zero re-evaluations of journaled points: the supervisor only ran
        # the remainder of the space.
        assert resumed.supervision["evaluations"] == len(resumed.evaluated) - 2
        ANALYSIS_CACHE.clear()
        base = explore("gemm", sizes=GEMM_SIZES, space=space, prune=False)
        assert sorted(r.point.label for r in resumed.evaluated) == sorted(
            r.point.label for r in base.evaluated
        )
        assert {r.point: r for r in resumed.evaluated} == {
            r.point: r for r in base.evaluated
        }

    def test_explore_closes_its_journal(self, tmp_path, journal_events):
        space = _gemm_space()
        explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            resilience=ResiliencePolicy(checkpoint=tmp_path / "gemm.journal"),
        )
        journal = journal_events[0][1]
        assert journal_events == [("append", journal)] * len(space) + [("close", journal)]

    def test_interrupted_run_resumes_without_reevaluation(self, tmp_path, monkeypatch):
        import repro.dse.batch as batch

        checkpoint = tmp_path / "gemm.journal"
        space = _gemm_space()
        real = batch.evaluate_point_batch
        calls = {"n": 0}

        def interrupting(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # the second batch
                raise KeyboardInterrupt()
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "evaluate_point_batch", interrupting)
        killed = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            strategy=TwoBatchStrategy(),
            resilience=ResiliencePolicy(checkpoint=checkpoint),
        )
        assert killed.interrupted and len(killed.evaluated) == 2
        monkeypatch.setattr(batch, "evaluate_point_batch", real)
        ANALYSIS_CACHE.clear()
        resumed = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            strategy=TwoBatchStrategy(),
            resilience=ResiliencePolicy(checkpoint=checkpoint),
        )
        assert not resumed.interrupted
        assert resumed.resumed == 2
        assert resumed.supervision["evaluations"] == len(resumed.evaluated) - 2


# ---------------------------------------------------------------------------
# Pooled chaos: crashes, hangs and a corrupted store in real worker pools
# ---------------------------------------------------------------------------


class TestPooledChaos:
    def test_pooled_crash_and_hang_recover_bit_identically(self):
        space = _gemm_space()
        base = explore("gemm", sizes=GEMM_SIZES, space=space, prune=False)
        points = [r.point.label for r in base.evaluated]
        plan = FaultPlan.make({
            ("gemm", points[0]): FaultSpec("crash"),
            ("gemm", points[1]): FaultSpec("hang", hang_seconds=20.0),
            ("gemm", points[2]): FaultSpec("corrupt"),
        })
        chaos = explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False, workers=2,
            resilience=ResiliencePolicy(
                timeout=5.0, retries=2, backoff=0.01, fault_plan=plan
            ),
        )
        assert chaos.evaluated == base.evaluated
        assert not chaos.quarantined
        stats = chaos.supervision
        assert stats["timeouts"] >= 2  # the crash and the hang both surface
        assert stats["recovered"] >= 3
        assert stats["pool_respawns"] >= 1

    def test_six_benchmark_chaos_run_matches_fault_free(self, tmp_path):
        benches = list(BENCH_SIZES)
        reference = MultiBenchmarkExplorer(
            benches, sizes=BENCH_SIZES, max_evaluations=2
        ).run()
        flat = [
            (name, r.point.label)
            for name in benches
            for r in reference[name].evaluated
        ]
        assert len(flat) == 2 * len(benches)
        plan = FaultPlan.make({
            flat[0]: FaultSpec("crash"),
            flat[5]: FaultSpec("hang", hang_seconds=60.0),
        })
        store = tmp_path / "analysis.pkl"
        store.write_bytes(b"one corrupted cache shard")
        ANALYSIS_CACHE.clear()
        policy = ResiliencePolicy(timeout=5.0, retries=2, backoff=0.01, fault_plan=plan)
        with pytest.warns(RuntimeWarning, match="failed validation"):
            chaos = MultiBenchmarkExplorer(
                benches, sizes=BENCH_SIZES, workers=2, max_evaluations=2,
                disk_cache=store, resilience=policy,
            ).run()
        assert set(chaos) == set(reference)
        for name in benches:
            # Bit-identical to the fault-free sweep; nothing dropped.
            assert chaos[name].evaluated == reference[name].evaluated
            assert not chaos[name].quarantined
            assert not chaos[name].interrupted
        stats = chaos[benches[0]].supervision
        assert stats["timeouts"] >= 2
        assert stats["recovered"] >= 2
        # The corrupted shard was quarantined and a clean store rebuilt.
        assert (tmp_path / "analysis.pkl.corrupt").exists()
        assert store.exists()

    def test_multibench_keyboard_interrupt_returns_partials(self, monkeypatch):
        import repro.dse.batch as batch

        real = batch.evaluate_point_batch
        calls = {"n": 0}

        def interrupting(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:  # round 1 = one batch per lane
                raise KeyboardInterrupt()
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "evaluate_point_batch", interrupting)
        results = MultiBenchmarkExplorer(
            ["gemm", "sumrows"],
            sizes={"gemm": GEMM_SIZES, "sumrows": {"m": 1024, "n": 128}},
            strategy=TwoBatchStrategy(),
        ).run()
        assert set(results) == {"gemm", "sumrows"}
        for result in results.values():
            assert result.interrupted
            assert len(result.evaluated) == 2
