"""The attention kernel gives the same bits on any number of threads.

``attention_rows`` runs its units (one block of query rows of one leading
index) on the calling thread plus helper threads that live only for the
call.  Which thread runs a unit never changes the unit's arithmetic, so
every result here is compared bit for bit (``uint64`` views) against the
one-thread run.  The thread count is set through the process's core share,
which tests monkeypatch; the kernel only goes parallel where the loaded
BLAS can be held to one thread per caller.
"""

import multiprocessing
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack
from repro.detectors.activation_cache import DeltaActivationStore
from repro.nn import parallel
from repro.nn.attention import attention_rows, block_rows
from repro.nn.ops import softmax

#: Key tokens whose block is short (128 rows), as in test_attention.py.
KEYS = 1024
ROWS = block_rows(1 << 20, KEYS)

needs_setter = pytest.mark.skipif(
    parallel.blas_setter() is None,
    reason="the loaded BLAS has no thread-local setter, so the kernel stays on one thread",
)


@pytest.fixture
def share(monkeypatch):
    """Set the process's core share (and so the kernel's thread count)."""

    def set_share(cores: int) -> None:
        monkeypatch.setattr(parallel, "_share", cores)

    return set_share


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _inputs(lead, tokens, keys=KEYS, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=lead + (tokens, dim)),
        rng.normal(size=lead + (keys, dim)),
        rng.normal(size=lead + (keys, 5)),
    )


def _units(lead, tokens, keys=KEYS):
    return int(np.prod(lead, dtype=int)) * -(-tokens // block_rows(tokens, keys))


#: (leading axes, query tokens, key tokens): token counts around block
#: edges, tail blocks, tiny self-attention and leading axes of one and two
#: dimensions; most give 16 or more units, enough for eight threads.
CASES = [
    ((), 2 * ROWS + 3, KEYS),
    ((8,), ROWS - 1, KEYS),
    ((8,), ROWS, KEYS),
    ((8,), ROWS + 1, KEYS),
    ((2, 3), 2 * ROWS + 3, KEYS),
    ((3, 2), 5 * ROWS - 1, KEYS),
    ((16,), 7, 7),
    ((20,), 480, 480),
]


class TestBitsDoNotDependOnThreads:
    @pytest.mark.parametrize("lead,tokens,keys", CASES)
    def test_one_two_and_eight_threads(self, share, lead, tokens, keys):
        query, key, value = _inputs(lead, tokens, keys, seed=tokens)
        share(1)
        expected = attention_rows(query, key, value, 1.7)
        assert parallel.threads_for(_units(lead, tokens, keys)) == 1
        share(2)
        two = attention_rows(query, key, value, 1.7)
        assert np.array_equal(_bits(two), _bits(expected))
        share(8)
        # A thread switch after every bytecode: a unit that is lost or run
        # twice, or a buffer shared between threads, shows in the bits.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = attention_rows(query, key, value, 1.7)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(_bits(eight), _bits(expected))

    @needs_setter
    @pytest.mark.parametrize("lead,tokens,keys", CASES)
    def test_thread_count_rule(self, share, lead, tokens, keys):
        """At least two units per thread, at most the share."""
        units = _units(lead, tokens, keys)
        for cores in (1, 2, 8):
            share(cores)
            assert parallel.threads_for(units) == max(1, min(cores, units // 2))

    @needs_setter
    def test_every_thread_runs_units(self, share):
        """Four threads each take a unit: the first unit of each waits at a
        barrier that only opens once all four threads have arrived."""
        share(4)
        lead, tokens = (8,), ROWS + 1
        barrier = threading.Barrier(4, timeout=30)
        local = threading.local()
        seen = []

        def spy(block, **kwargs):
            if not getattr(local, "arrived", False):
                local.arrived = True
                barrier.wait()
            seen.append((threading.get_ident(), block.shape))
            return softmax(block, **kwargs)

        query, key, value = _inputs(lead, tokens)
        actual = attention_rows(query, key, value, 2.0, normalize=spy)
        assert len({ident for ident, _ in seen}) == 4
        assert Counter(shape for _, shape in seen) == Counter(
            {(ROWS, KEYS): 8, (1, KEYS): 8}
        )
        share(1)
        assert np.array_equal(_bits(actual), _bits(attention_rows(query, key, value, 2.0)))


    def test_one_thread_without_a_blas_setter(self, share, monkeypatch):
        """Where the loaded BLAS cannot be held to one thread per caller,
        the kernel keeps to the calling thread whatever the share."""
        monkeypatch.setattr(parallel, "blas_setter", lambda: None)
        share(8)
        threads = set()

        def spy(block, **kwargs):
            threads.add(threading.get_ident())
            return softmax(block, **kwargs)

        query, key, value = _inputs((8,), ROWS + 1)
        actual = attention_rows(query, key, value, 2.0, normalize=spy)
        assert parallel.threads_for(16) == 1
        assert threads == {threading.get_ident()}
        share(1)
        assert np.array_equal(_bits(actual), _bits(attention_rows(query, key, value, 2.0)))


class TestThreadLifetime:
    def test_no_thread_outlives_a_call(self, share):
        share(8)
        query, key, value = _inputs((2, 3), 2 * ROWS + 3)
        before = threading.active_count()
        attention_rows(query, key, value, 1.0)
        assert threading.active_count() == before

    @needs_setter
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_helper_error_reaches_the_caller(self, share, error):
        share(2)
        helper_failed = threading.Event()

        def normalize(block, **kwargs):
            if threading.current_thread() is threading.main_thread():
                # Hold the caller on its unit until a helper has failed.
                assert helper_failed.wait(timeout=30)
                return softmax(block, **kwargs)
            helper_failed.set()
            raise error("helper unit failed")

        query, key, value = _inputs((8,), ROWS + 1)
        before = threading.active_count()
        with pytest.raises(error, match="helper unit failed"):
            attention_rows(query, key, value, 1.0, normalize=normalize)
        assert threading.active_count() == before

    def test_caller_error_joins_the_helpers(self, share):
        share(2)

        def normalize(block, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raise ValueError("caller unit failed")
            return softmax(block, **kwargs)

        query, key, value = _inputs((8,), ROWS + 1)
        before = threading.active_count()
        with pytest.raises(ValueError, match="caller unit failed"):
            attention_rows(query, key, value, 1.0, normalize=normalize)
        assert threading.active_count() == before


def _threaded_call_in_child() -> None:
    query, key, value = _inputs((8,), ROWS + 1)
    threaded = attention_rows(query, key, value, 1.0)
    parallel._share = 1
    alone = attention_rows(query, key, value, 1.0)
    sys.exit(0 if np.array_equal(_bits(threaded), _bits(alone)) else 3)


class TestFork:
    def test_fork_child_runs_a_threaded_call(self, share):
        """A threaded call leaves no thread behind, so a child forked after
        one can run its own threaded call."""
        share(2)
        query, key, value = _inputs((8,), ROWS + 1)
        attention_rows(query, key, value, 1.0)
        child = multiprocessing.get_context("fork").Process(
            target=_threaded_call_in_child
        )
        child.start()
        child.join(timeout=120)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join(timeout=10)
        assert not alive
        assert child.exitcode == 0


def _patch(shape, window, seed):
    mask = np.zeros(shape)
    r0, r1, c0, c1 = window
    mask[r0:r1, c0:c1] = np.random.default_rng(seed).integers(
        -255, 256, size=(r1 - r0, c1 - c0, shape[2])
    )
    return mask


def _mixed_stack(shape):
    """Empty, sparse spliced, ancestor-spliced, stored-twin and dense masks."""
    parent = _patch(shape, (10, 20, 30, 60), 41)
    child = parent.copy()
    child[12:14, 40:44] += 17.0
    dense = np.random.default_rng(43).integers(-30, 31, size=shape).astype(float)
    sparse = [
        _patch(shape, window, seed)
        for seed, window in enumerate(
            [(0, 3, 0, 4), (5, 11, 30, 41), (30, 44, 60, 90), (0, shape[0], 150, 153)]
        )
    ]
    masks = [np.zeros(shape), child, parent.copy(), dense] + sparse
    ancestry = [None, {"fingerprint": b"child", "ancestor": b"parent"}]
    ancestry += [{"fingerprint": b"twin", "ancestor": b"parent"}]
    ancestry += [{"fingerprint": b"dense", "ancestor": None}]
    ancestry += [{"fingerprint": bytes([i]), "ancestor": None} for i in range(4)]
    return parent, np.stack(masks), ancestry


def _prediction_key(prediction):
    return [(o.cl, o.x, o.y, o.l, o.w, o.score) for o in prediction]


class TestDetectorRoutes:
    def test_detr_attack_identical_at_one_and_two_threads(
        self, share, detr_detector, small_dataset, fast_attack_config
    ):
        image = small_dataset[0].image
        results = []
        for cores in (1, 2):
            share(cores)
            results.append(ButterflyAttack(detr_detector, fast_attack_config).attack(image))
        alone, threaded = results
        assert threaded.fingerprint() == alone.fingerprint()
        assert _prediction_key(threaded.clean_prediction) == _prediction_key(
            alone.clean_prediction
        )
        assert [
            _prediction_key(s.perturbed_prediction or []) for s in threaded.solutions
        ] == [_prediction_key(s.perturbed_prediction or []) for s in alone.solutions]

    def test_mixed_delta_batch_identical_at_one_and_two_threads(
        self, share, detr_detector, small_dataset
    ):
        image = small_dataset[0].image
        parent, masks, ancestry = _mixed_stack(image.shape)
        answers = []
        for cores in (1, 2):
            share(cores)
            clean = detr_detector.clean_activations(image)
            clean.delta = DeltaActivationStore(max_entries=16)
            detr_detector.predict_delta_batch(
                image,
                parent[None],
                clean=clean,
                ancestry=[{"fingerprint": b"parent", "ancestor": None}],
            )
            predictions = detr_detector.predict_delta_batch(
                image, masks, clean=clean, ancestry=ancestry
            )
            answers.append([_prediction_key(p) for p in predictions])
            assert clean.delta.hits == 2  # the child and the twin
        assert answers[0] == answers[1]
        dense = detr_detector.predict_batch(np.clip(image[None] + masks, 0.0, 255.0))
        assert answers[0] == [_prediction_key(p) for p in dense]
