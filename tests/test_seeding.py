"""``seed_state`` against NumPy's ``SeedSequence``, the algorithm it repeats
for many rows at once."""

import numpy as np
import pytest

from kgsemcom.phy import seed_state

EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**70)


def _oracle(rows, n_words: int) -> np.ndarray:
    return np.array([np.random.SeedSequence(tuple(row)).generate_state(n_words, np.uint64)
                     for row in rows])


def _random_rows(rng, n_rows: int, n_entries: int) -> list[tuple[int, ...]]:
    def entry():
        if rng.random() < 0.5:
            return EDGES[int(rng.integers(len(EDGES)))]
        return int.from_bytes(rng.bytes(int(rng.integers(1, 13))), "little")
    return [tuple(entry() for _ in range(n_entries)) for _ in range(n_rows)]


@pytest.mark.parametrize("n_entries", range(1, 9))
@pytest.mark.parametrize("n_words", [1, 2, 3])
def test_rows_of_mixed_word_layouts_equal_seed_sequence(n_entries, n_words):
    rng = np.random.default_rng(1000 * n_entries + n_words)
    rows = _random_rows(rng, 40, n_entries)
    columns = list(zip(*rows))
    assert np.array_equal(seed_state(columns, n_words), _oracle(rows, n_words))


def test_every_edge_value_in_every_position():
    rows = [tuple(EDGES[(i + j) % len(EDGES)] if j == k else 7 for j in range(5))
            for i in range(len(EDGES)) for k in range(5)]
    assert np.array_equal(seed_state(list(zip(*rows)), 2), _oracle(rows, 2))


def test_entries_broadcast_and_integer_arrays_take_the_same_path():
    trial = np.arange(6)
    scheme = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    got = seed_state((2**40 + 3, 5, np.uint64(2**64 - 1), trial, scheme), 1)
    rows = [(2**40 + 3, 5, 2**64 - 1, t, s) for t, s in zip(trial.tolist(), scheme.tolist())]
    assert np.array_equal(got, _oracle(rows, 1))
    big = np.array([0, 2**32, 2**64 - 1], dtype=np.uint64)
    assert np.array_equal(seed_state((big,), 2), seed_state((big.tolist(),), 2))
    assert np.array_equal(seed_state((big,), 2), _oracle([(int(v),) for v in big], 2))


def test_entropy_and_state_longer_than_the_precomputed_constants():
    rows = [(2**3000 + 7, 1), (2**3000 - 1, 2**70)]
    assert np.array_equal(seed_state(list(zip(*rows)), 40), _oracle(rows, 40))


def test_a_lone_int_is_one_row():
    assert seed_state((2**70,), 2).shape == (1, 2)
    assert np.array_equal(seed_state((2**70,), 2)[0],
                          np.random.SeedSequence(2**70).generate_state(2, np.uint64))
    assert seed_state(([],), 2).shape == (0, 2)


@pytest.mark.parametrize("entry", [-1, [3, -1], np.array([-5]), -(2**70)])
def test_negative_entropy_raises_value_error(entry):
    with pytest.raises(ValueError, match="non-negative"):
        seed_state((1, entry), 1)
    with pytest.raises(ValueError):
        np.random.SeedSequence((1, -1))


@pytest.mark.parametrize("entry", [1.5, [2, 0.5], np.array([1.0])])
def test_non_integer_entropy_raises_type_error(entry):
    with pytest.raises(TypeError):
        seed_state((entry,), 1)
