"""Unit tests for flow-controlled streams."""

import pytest

from repro.simnet import (
    Disconnected,
    Host,
    Network,
    Simulator,
    Stream,
)


def make_pair(window=64 * 1024):
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    stream = Stream(net, a, b, window=window)
    return sim, net, stream


def test_write_then_read_delivers_payload():
    sim, net, stream = make_pair()

    def writer():
        yield from stream.a.write(100, payload="hello")

    def reader():
        nbytes, payload = yield stream.b.read()
        return (nbytes, payload)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == (100, "hello")


def test_segments_delivered_in_order():
    sim, net, stream = make_pair()
    got = []

    def writer():
        for i in range(10):
            yield from stream.a.write(50, payload=i)

    def reader():
        for _ in range(10):
            _, payload = yield stream.b.read()
            got.append(payload)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert got == list(range(10))


def test_window_blocks_writer_until_reader_drains():
    sim, net, stream = make_pair(window=1000)
    times = {}

    def writer():
        yield from stream.a.write(800, payload="first")
        yield from stream.a.write(800, payload="second")  # must wait for read
        times["second_written"] = sim.now

    def reader():
        yield sim.timeout(5.0)
        yield stream.b.read()
        times["first_read"] = sim.now
        yield stream.b.read()

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert times["second_written"] >= times["first_read"]


def test_write_nowait_respects_window():
    sim, net, stream = make_pair(window=1000)
    assert stream.a.write_nowait(900, payload=1) is True
    assert stream.a.write_nowait(900, payload=2) is False  # window full


def test_try_read_and_readable():
    sim, net, stream = make_pair()
    assert stream.b.try_read() == (False, 0, None)
    assert not stream.b.readable

    def writer():
        yield from stream.a.write(10, payload="x")

    p = sim.spawn(writer(), "w")
    sim.run_until(p.done)
    sim.run()
    assert stream.b.readable
    assert stream.b.try_read() == (True, 10, "x")


def test_read_releases_credit():
    sim, net, stream = make_pair(window=1000)

    def writer():
        for i in range(5):
            yield from stream.a.write(1000, payload=i)
        return sim.now

    def reader():
        for _ in range(5):
            yield stream.b.read()

    pw = sim.spawn(writer(), "w")
    sim.spawn(reader(), "r")
    sim.run_until(pw.done)  # would deadlock if credit never returned


def test_oversized_write_charged_at_window_cap():
    """A segment larger than the window is still writable (charged capped)."""
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write(5000, payload="big")

    def reader():
        nbytes, payload = yield stream.b.read()
        return nbytes

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == 5000


def test_break_fails_pending_read():
    sim, net, stream = make_pair()

    def reader():
        yield stream.b.read()

    p = sim.spawn(reader(), "r", supervised=True)
    sim.after(1.0, lambda: stream.break_both("peer crash"))
    sim.run()
    assert isinstance(p.done.exception, Disconnected)


def test_break_fails_blocked_writer():
    sim, net, stream = make_pair(window=100)

    def writer():
        yield from stream.a.write(100, payload=1)
        yield from stream.a.write(100, payload=2)  # blocked: no reader

    p = sim.spawn(writer(), "w", supervised=True)
    sim.after(1.0, lambda: stream.break_both("peer crash"))
    sim.run()
    assert isinstance(p.done.exception, Disconnected)


def test_host_crash_breaks_attached_streams():
    sim, net, stream = make_pair()

    def reader():
        yield stream.b.read()

    p = sim.spawn(reader(), "r", supervised=True)
    sim.after(1.0, stream.a.host.crash)
    sim.run()
    assert isinstance(p.done.exception, Disconnected)
    assert stream.dead


def test_in_flight_segment_dropped_on_crash():
    """Atomicity: a segment in flight when the receiver dies is dropped."""
    sim, net, stream = make_pair()

    def writer():
        yield from stream.a.write(60_000, payload="doomed")

    sim.spawn(writer(), "w")
    # crash the receiver while the segment is on the wire
    sim.after(1e-6, stream.b.host.crash)
    sim.run()
    assert stream.b.rx_depth == 0


def test_write_after_break_raises():
    sim, net, stream = make_pair()
    stream.break_both("gone")

    def writer():
        yield from stream.a.write(10, payload="x")

    p = sim.spawn(writer(), "w", supervised=True)
    sim.run()
    assert isinstance(p.done.exception, Disconnected)


def test_end_for_lookup():
    sim, net, stream = make_pair()
    assert stream.end_for(stream.a.host) is stream.a
    assert stream.end_for(stream.b.host) is stream.b
    other = Host(sim, "z")
    with pytest.raises(ValueError):
        stream.end_for(other)


def test_byte_accounting():
    sim, net, stream = make_pair()

    def writer():
        yield from stream.a.write(123, payload=None)

    def reader():
        yield stream.b.read()

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert stream.a.bytes_written == 123
    assert stream.b.bytes_read == 123


def test_bidirectional_streams_independent():
    sim, net, stream = make_pair()

    def ping():
        yield from stream.a.write(10, payload="ping")
        _, payload = yield stream.a.read()
        return payload

    def pong():
        _, payload = yield stream.b.read()
        yield from stream.b.write(10, payload="pong")

    p = sim.spawn(ping(), "ping")
    sim.spawn(pong(), "pong")
    assert sim.run_until(p.done) == "pong"


# -- coalesced frames (write_frame) -------------------------------------------


def test_write_frame_delivers_one_record():
    """A frame within the window arrives as ONE segment: one reader
    wakeup carrying the record, no intermediate None segments."""
    sim, net, stream = make_pair(window=64 * 1024)

    def writer():
        yield from stream.a.write_frame(40_000, record="rec", mtu=1024)

    def reader():
        nbytes, payload = yield stream.b.read()
        return (nbytes, payload, stream.b.readable)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == (40_000, "rec", False)


def test_write_frame_times_like_segmented_writes():
    """Coalescing must not cheat the wire: a frame spanning N mtu-sized
    segments pays the same frame overhead and inter-segment gaps as N
    separate writes (only the per-call CPU batching differs)."""
    sim1, net1, stream1 = make_pair(window=64 * 1024)

    def framed():
        yield from stream1.a.write_frame(8_000, record="x", mtu=1000)

    def drain1():
        yield stream1.b.read()
        return sim1.now

    sim1.spawn(framed(), "w")
    p1 = sim1.spawn(drain1(), "r")
    t_framed = sim1.run_until(p1.done)

    sim2, net2, stream2 = make_pair(window=64 * 1024)

    def segmented():
        for i in range(8):
            yield from stream2.a.write(1000, payload=i)

    def drain2():
        for _ in range(8):
            yield stream2.b.read()
        return sim2.now

    sim2.spawn(segmented(), "w")
    p2 = sim2.spawn(drain2(), "r")
    t_segmented = sim2.run_until(p2.done)
    assert t_framed == pytest.approx(t_segmented)


def test_write_frame_larger_than_window_respects_flow_control():
    """An over-window frame falls back to window-respecting segments:
    the reader must drain mid-transfer (Figure 9), and the record rides
    the final segment."""
    sim, net, stream = make_pair(window=1000)
    got = []

    def writer():
        yield from stream.a.write_frame(3500, record="tail", mtu=1000)

    def reader():
        while True:
            nbytes, payload = yield stream.b.read()
            got.append((nbytes, payload))
            if payload is not None:
                return

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert got == [(1000, None), (1000, None), (1000, None), (500, "tail")]
    assert stream.a.bytes_written == 3500
    assert stream.b.bytes_read == 3500


def test_write_frame_over_window_counts_at_most_one_stall():
    """However many segments of an over-window frame block on credit,
    the call books a single window stall (it is one blocked write)."""
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write_frame(5000, record="r", mtu=1000)

    def reader():
        while True:
            _, payload = yield stream.b.read()
            if payload is not None:
                return

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert stream.a.stall_count == 1
    assert stream.a.stall_s > 0.0


# -- window-stall accounting --------------------------------------------------


def test_stall_counted_when_blocked_behind_queued_waiter():
    """FIFO blocking: a writer with enough raw tokens still queues
    behind an earlier waiter — that is a stall too (the old
    tokens-sufficient pre-check missed it)."""
    sim, net, stream = make_pair(window=1000)
    order = []

    def big_writer():
        yield from stream.a.write(900, payload="a1")
        yield from stream.a.write(900, payload="a2")  # blocks: 100 left
        order.append("big")

    def small_writer():
        # Runs after big_writer queued for credit.  100 tokens remain —
        # enough for this 50-byte segment — but FIFO order parks it
        # behind the blocked big write, so it must count a stall.
        yield sim.timeout(0.001)
        yield from stream.a.write(50, payload="b")
        order.append("small")

    def reader():
        yield sim.timeout(1.0)
        for _ in range(3):
            yield stream.b.read()

    sim.spawn(big_writer(), "w1")
    sim.spawn(small_writer(), "w2")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    sim.run()
    assert order == ["big", "small"]
    assert stream.a.stall_count == 2  # both the big AND the queued small
    assert stream.a.stall_s > 0.0


def test_no_stall_counted_on_free_write():
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write(100, payload=None)

    def reader():
        yield stream.b.read()

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert stream.a.stall_count == 0
    assert stream.a.stall_s == 0.0


def test_write_nowait_refuses_behind_queued_waiter():
    """write_nowait must not jump the FIFO credit queue: with waiters
    parked, it reports full even when raw tokens would cover it."""
    sim, net, stream = make_pair(window=1000)

    def blocked_writer():
        yield from stream.a.write(900, payload=1)
        yield from stream.a.write(900, payload=2)  # parks on credit

    sim.spawn(blocked_writer(), "w")
    sim.run()
    assert stream.a.write_nowait(50, payload=3) is False


def test_retired_stream_stall_still_folded():
    """A stalled stream that died and was swept off the host lists
    keeps its window stalls in the end-of-run fold, counted once."""
    from types import SimpleNamespace

    from repro.obs.collect import fold_cluster
    from repro.obs.registry import Metrics
    from repro.simnet.livelist import SWEEP_FLOOR

    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write_frame(5000, record="r", mtu=1000)

    def reader():
        while True:
            _, payload = yield stream.b.read()
            if payload is not None:
                return

    sim.spawn(writer(), "w")
    sim.run_until(sim.spawn(reader(), "r").done)
    stall_s, stalls = stream.a.stall_s, stream.a.stall_count
    assert stall_s > 0.0 and stalls == 1
    stream.break_both("closed")
    a = stream.a.host
    c = net.add_host(Host(sim, "c"))
    for _ in range(SWEEP_FLOOR):  # sweeps a's list, not b's
        Stream(net, a, c)
    assert stream.retired and stream not in a._streams
    assert stream in stream.b.host._streams  # still listed on b

    cluster = SimpleNamespace(metrics=Metrics(), net=net)
    fold_cluster(cluster)
    m = cluster.metrics
    assert m.total("stream.stall_s") == stall_s
    assert m.total("stream.stalls") == stalls
    assert m.counter("stream.stalls", host="a").value == stalls
