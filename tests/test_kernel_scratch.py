"""The exact kernel keeps no table over the whole group, and its reused work arrays are per thread.

The indices of h - h' are summed per batch of output points from the per-factor
tables, into work arrays kept on the calling thread, so a dense convolution on a
fresh 1024-point group neither builds nor holds a |G| x |G| table, and two
threads convolving at once get the bits each would get alone.
"""

import sys
import threading
import tracemalloc

import numpy as np

from groupsampling import GroupSequence, GroupSpec, SequenceMatrix, VectorSequence, apply, convolve

MB = 1 << 20
THREADS = 4  # more threads than the two cores the suite is timed on


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense_pair(seed):
    g = GroupSpec((32, 32))  # a new object, with none of the tables an earlier call cached
    rng = np.random.default_rng(seed)
    return GroupSequence(g, _complex(rng, g.order)), GroupSequence(g, _complex(rng, g.order))


def test_dense_convolve_on_a_fresh_group_holds_no_table():
    a, x = _dense_pair(0)
    tracemalloc.start()
    try:
        convolve(a, x)
        _, peak = tracemalloc.get_traced_memory()
        b, y = _dense_pair(1)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = convolve(b, y)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * MB
    assert held - before - out.values.nbytes < MB // 2


def test_threads_get_the_bits_of_calls_made_alone():
    """Convolutions and an apply, running at once on several threads."""
    rng = np.random.default_rng(2)
    g, h = GroupSpec((24, 24)), GroupSpec((4, 6, 5))
    a, x = (GroupSequence(g, _complex(rng, g.order)) for _ in range(2))
    lattice = np.flatnonzero(rng.random(g.order) < 0.25)
    sparse = GroupSequence(g, np.where(np.isin(np.arange(g.order), lattice), x.values, 0))
    system = SequenceMatrix(h, _complex(rng, (3, 2, h.order)))
    coeffs = VectorSequence(h, _complex(rng, (2, h.order)))
    calls = [lambda: convolve(a, x).values,
             lambda: convolve(a, sparse).values,
             lambda: convolve(a, x, at=lattice),
             lambda: apply(system, coeffs).values]
    alone = [call() for call in calls]
    start = threading.Barrier(THREADS)
    got = {}

    def run(k):  # each thread starts the calls at its own offset, so different calls overlap
        start.wait()
        got[k] = [[calls[(k + i) % len(calls)]() for i in range(len(calls))] for _ in range(3)]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(got) == THREADS
    for k, rounds in got.items():
        for outputs in rounds:
            for i, value in enumerate(outputs):
                want = alone[(k + i) % len(calls)]
                assert np.array_equal(value.view(np.uint64), want.view(np.uint64))


def test_zero_operand_as_the_first_call_on_a_thread():
    """An all-zero operand asks for empty work arrays before this thread has any."""
    rng = np.random.default_rng(3)
    g, h = GroupSpec((4, 4)), GroupSpec((3, 5))
    y = GroupSequence(g, _complex(rng, g.order))
    system = SequenceMatrix(h, _complex(rng, (3, 2, h.order)))
    calls = [lambda: convolve(GroupSequence.zeros(g), y).values,
             lambda: convolve(y, GroupSequence.zeros(g)).values,
             lambda: convolve(GroupSequence.zeros(g), y, at=np.arange(0, g.order, 3)),
             lambda: apply(system, VectorSequence.zeros(h, 2)).values]
    got = {}

    def run(k):
        try:
            got[k] = calls[k]()
        except Exception as error:  # reported below, with the call that raised it
            got[k] = error

    for k in range(len(calls)):  # one new thread per call, so each call is its thread's first
        thread = threading.Thread(target=run, args=(k,))
        thread.start()
        thread.join(timeout=60)
    assert len(got) == len(calls)
    for k, value in got.items():
        assert isinstance(value, np.ndarray), (k, value)
        assert not value.any()
