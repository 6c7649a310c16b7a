"""The TCP transport: framing over real sockets, remote dedup, bad peers."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import evaluate_point
from repro.dse.space import DesignPoint
from repro.errors import FarmError, ProtocolError
from repro.serve import CompileFarm, CompileRequest, CompileResponse
from repro.serve.net import FarmServer, RemoteClient, read_frame, write_frame
from repro.serve.protocol import (
    decode_frame,
    encode_frame,
    frame_header_size,
    parse_frame_header,
)

SIZES = {"sumrows": {"m": 1024, "n": 64}}


def _points(pars=(1, 2, 4)):
    return [DesignPoint.make(tile_sizes={"m": 64, "n": 64}, par=par) for par in pars]


GOOD = _points((1,))[0]
#: Requests the farm rejects, each sent after a well-formed one, with a
#: fragment of the error the client receives.
MALFORMED = [
    pytest.param(
        CompileRequest("sumrows", "not-a-point", request_id="b"), "DesignPoint", id="point"
    ),
    pytest.param(("sumrows", "not-a-point"), "DesignPoint", id="pair-point"),
    pytest.param(
        CompileRequest(["sumrows"], GOOD, request_id="b"), "benchmark", id="benchmark"
    ),
    pytest.param(CompileRequest("sumrows", GOOD, request_id=7), "request_id", id="request-id"),
    pytest.param(
        CompileRequest("sumrows", GOOD, pipeline=7, request_id="b"), "pipeline", id="pipeline"
    ),
    pytest.param(
        CompileRequest("sumrows", GOOD, cycle_model=["event"], request_id="b"),
        "cycle_model",
        id="cycle-model",
    ),
    pytest.param(
        CompileRequest("sumrows", GOOD, pipeline="nosuch", request_id="b"),
        "unknown pipeline variant 'nosuch'",
        id="unknown-pipeline",
    ),
    pytest.param(
        CompileRequest("sumrows", GOOD, cycle_model="bogus", request_id="b"),
        "cycle_model 'bogus'",
        id="unknown-cycle-model",
    ),
    pytest.param(("sumrows",), "pair", id="short-tuple"),
    pytest.param("sumrows", "pair", id="str"),
]
#: ``submit`` frames whose ``requests`` field is not a list.
NOT_A_LIST = [
    pytest.param({"op": "submit"}, id="missing"),
    pytest.param({"op": "submit", "requests": None}, id="none"),
    pytest.param({"op": "submit", "requests": "not-a-list"}, id="str"),
    pytest.param(
        {"op": "submit", "requests": CompileRequest("sumrows", GOOD)}, id="bare-request"
    ),
    pytest.param({"op": "submit", "requests": (("sumrows", GOOD),)}, id="tuple"),
]


@pytest.mark.asyncio
async def test_remote_gather_matches_local_submission_order():
    points = _points()
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            host, port = server.address
            async with await RemoteClient.connect(host, port) as client:
                assert await client.ping()
                responses = await client.gather(
                    [CompileRequest("sumrows", p) for p in points]
                )
    assert [r.point for r in responses] == points
    assert all(r.ok for r in responses)
    assert [r.status for r in responses] == ["evaluated"] * len(points)


@pytest.mark.asyncio
async def test_remote_duplicates_dedupe_on_the_server():
    points = _points((1, 2))
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            host, port = server.address
            async with await RemoteClient.connect(host, port) as client:
                responses = await client.gather(
                    [CompileRequest("sumrows", p) for p in points + points]
                )
                stats = await client.stats()
    assert [r.status for r in responses] == [
        "evaluated",
        "evaluated",
        "coalesced",
        "coalesced",
    ]
    assert stats["scheduled"] == 2
    assert stats["evaluations"] == 2


@pytest.mark.asyncio
async def test_remote_cache_metrics_snapshot_per_table():
    points = _points((1, 2))
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            host, port = server.address
            async with await RemoteClient.connect(host, port) as client:
                await client.gather([CompileRequest("sumrows", p) for p in points])
                cache = await client.cache_metrics()
    # A per-table snapshot with derived hit rates; evaluating through the
    # farm populates at least the point-results table.
    assert cache and all(isinstance(table, dict) for table in cache.values())
    for table in cache.values():
        assert {"entries", "evictions", "hits", "misses", "hit_rate"} <= set(table)
        assert 0.0 <= table["hit_rate"] <= 1.0
    assert "point_results" in cache
    assert cache["point_results"]["entries"] >= len(points)
    # The evaluating session's configuration memo rides along: both points
    # share one configuration.
    assert cache["config_state"]["misses"] == 1
    assert cache["config_state"]["hits"] == len(points) - 1
    # The snapshot also lands on the farm's own stats object.
    assert farm.stats.cache == cache


@pytest.mark.asyncio
async def test_remote_stream_yields_in_completion_order():
    points = _points()
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            host, port = server.address
            async with await RemoteClient.connect(host, port) as client:
                streamed = [
                    r
                    async for r in client.stream(
                        [CompileRequest("sumrows", p) for p in points]
                    )
                ]
    assert len(streamed) == len(points)
    assert {r.point for r in streamed} == set(points)


@pytest.mark.asyncio
async def test_remote_unknown_benchmark_surfaces_as_farm_error():
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            host, port = server.address
            async with await RemoteClient.connect(host, port) as client:
                with pytest.raises(FarmError, match="not served"):
                    await client.gather(
                        [CompileRequest("nosuchbench", _points()[0])]
                    )


@pytest.mark.asyncio
@pytest.mark.parametrize("bad, error", MALFORMED)
async def test_remote_malformed_request_fails_its_batch_and_keeps_the_connection(bad, error):
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            async with await RemoteClient.connect(*server.address) as client:
                with pytest.raises(FarmError, match=error):
                    await client.gather(
                        [CompileRequest("sumrows", GOOD, request_id="a"), bad]
                    )
                assert await client.ping()
                assert farm.stats.received == 0
                assert farm.stats.scheduled == 0
                responses = await client.gather([CompileRequest("sumrows", GOOD)])
    assert [r.status for r in responses] == ["evaluated"]


@pytest.mark.asyncio
@pytest.mark.parametrize("frame", NOT_A_LIST)
async def test_submit_frame_without_a_request_list_gets_an_error_reply(frame):
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                await write_frame(writer, frame)
                reply = await read_frame(reader)
                assert reply["op"] == "error" and "must be a list" in reply["error"]
                await write_frame(writer, {"op": "ping"})
                assert await read_frame(reader) == {"op": "pong"}
            finally:
                writer.close()
                await writer.wait_closed()
    assert farm.stats.received == 0


@pytest.mark.asyncio
async def test_malformed_frame_drops_the_connection():
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
    async with farm:
        async with FarmServer(farm) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not a frame and never will be")
            await writer.drain()
            # The server drops a desynchronised peer instead of answering.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            # The farm itself is unaffected: a fresh connection still works.
            async with await RemoteClient.connect(host, port) as client:
                assert await client.ping()


# ---------------------------------------------------------------------------
# Generated bad frames
# ---------------------------------------------------------------------------


def _expected(points):
    """Cache-off results of sumrows points at SIZES: the correct answers."""
    bench = get_benchmark("sumrows")
    program, workload = bench.build(), bench.workload(SIZES["sumrows"])
    with ANALYSIS_CACHE.disabled():
        return [evaluate_point(program, workload, point) for point in points]


FUZZ_POINTS = _points((1, 2))
FUZZ_EXPECTED = _expected(FUZZ_POINTS)
RESPONSE_FRAME = encode_frame(
    {
        "op": "response",
        "response": CompileResponse(
            request_id="r0",
            benchmark="sumrows",
            point=FUZZ_POINTS[0],
            status="evaluated",
            result=FUZZ_EXPECTED[0],
        ),
    }
)


@st.composite
def mutated_frames(draw):
    """The encoded response frame with bytes flipped, truncated or extended
    (one of the three, or all of them in that order)."""
    frame = bytearray(RESPONSE_FRAME)
    kind = draw(st.sampled_from(("flip", "truncate", "extend", "all")))
    if kind in ("flip", "all"):
        flips = st.tuples(st.integers(0, len(frame) - 1), st.integers(1, 255))
        for position, mask in draw(st.lists(flips, min_size=1, max_size=4)):
            frame[position] ^= mask
    if kind in ("truncate", "all"):
        del frame[draw(st.integers(0, len(frame) - 1)) :]
    if kind in ("extend", "all"):
        frame += draw(st.binary(min_size=1, max_size=64))
    return bytes(frame)


@given(frame=mutated_frames())
@settings(max_examples=300, deadline=None)
def test_decode_frame_raises_only_protocol_error_on_mutated_bytes(frame):
    if frame == RESPONSE_FRAME:
        assert decode_frame(frame)["response"].result == FUZZ_EXPECTED[0]
        return
    with pytest.raises(ProtocolError):
        decode_frame(frame)


def _replies(blob):
    """The ops of the frames in ``blob``, a complete server reply stream."""
    ops, offset = [], 0
    while offset < len(blob):
        end = offset + frame_header_size()
        end += parse_frame_header(blob[offset:end])
        ops.append(decode_frame(blob[offset:end])["op"])
        offset = end
    return ops


@given(frame=mutated_frames())
@settings(max_examples=50, deadline=None)
def test_server_drops_a_mutated_frame_and_keeps_serving(frame):
    """A peer sending the mutated bytes and then a ping is dropped at the
    first bad frame, unanswered; a second client on the same server is
    still answered correctly.  (An intact leading frame is well formed and
    gets the error reply of an unknown op.)"""

    async def scenario():
        ANALYSIS_CACHE.clear()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            async with FarmServer(farm) as server:
                host, port = server.address
                async with await RemoteClient.connect(host, port) as client:
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(frame + encode_frame({"op": "ping"}))
                    writer.write_eof()
                    # The server closes the connection: read() meets EOF.
                    blob = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    responses = await client.gather(
                        [CompileRequest("sumrows", point) for point in FUZZ_POINTS]
                    )
                    return _replies(blob), responses

    ops, responses = asyncio.run(scenario())
    if not frame:
        assert ops == ["pong"]
    elif frame == RESPONSE_FRAME:
        assert ops == ["error", "pong"]
    else:
        assert ops == (["error"] if frame.startswith(RESPONSE_FRAME) else [])
    assert [response.result for response in responses] == FUZZ_EXPECTED
