import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eqassess import RngStream, pmap


def test_same_stream_same_draws():
    a = RngStream(7).generator().random(100)
    b = RngStream(7).generator().random(100)
    np.testing.assert_array_equal(a, b)


def test_different_seed_differs():
    a = RngStream(7).generator().random(8)
    b = RngStream(8).generator().random(8)
    assert not np.array_equal(a, b)


def test_substream_differs_from_parent():
    a = RngStream(7).generator().random(8)
    b = RngStream(7).substream(0).generator().random(8)
    assert not np.array_equal(a, b)


def test_substream_children_distinct():
    draws = [RngStream(7).substream(k).generator().random(4) for k in range(10)]
    flat = [tuple(d) for d in draws]
    assert len(set(flat)) == len(flat)


@given(st.integers(0, 2 ** 31), st.lists(st.integers(0, 50), max_size=4))
@settings(max_examples=50, deadline=None)
def test_path_uniqueness(seed, path):
    # the same split path reached twice gives the same stream; a sibling differs
    s = RngStream(seed)
    for k in path:
        s = s.substream(k)
    t = RngStream(seed)
    for k in path:
        t = t.substream(k)
    assert s == t
    np.testing.assert_array_equal(s.generator().random(4),
                                  t.generator().random(4))
    sib = s.substream(0).generator().random(4)
    assert not np.array_equal(sib, s.generator().random(4))


def test_nested_substreams_never_collide():
    # child 1 of stream 0 must differ from child 0 of stream 1
    a = RngStream(3).substream(0).substream(1).generator().random(4)
    b = RngStream(3).substream(1).substream(0).generator().random(4)
    assert not np.array_equal(a, b)


def test_pmap_gathers_by_index():
    def job(i):
        return RngStream(11).substream(i).generator().random(3).sum()

    assert pmap(job, 20) == [job(i) for i in range(20)]


def test_pmap_runs_every_task_in_the_calling_thread():
    import threading

    seen = pmap(lambda i: (i, threading.get_ident(), threading.active_count()), 8)
    assert [s[0] for s in seen] == list(range(8))
    assert {s[1] for s in seen} == {threading.get_ident()}
    assert {s[2] for s in seen} == {threading.active_count()}
