"""Many NumPy random streams seeded in one vectorized pass.

``seed_streams(keys)`` gives ``Generator(PCG64(SeedSequence(key)))`` for
each key, bit for bit.  NumPy's SeedSequence hashes one key at a time,
word by word, and seeding a stream that way costs more than most draws
from it.  Here the hash of every key of four uint32 words runs at once as
wrapping uint32 array operations, and each PCG64 is seeded from its
hashed words; any other key takes NumPy's own SeedSequence.  numpy.random
loads at the first call, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# NumPy's SeedSequence (numpy/random/bit_generator.pyx) hashes a key of
# four uint32 words with hashmix(v) = ((v ^ c) * c') ^ ((v ^ c) * c' >> 16),
# where c' = c * mult (mod 2**32) is the next link of a constant chain that
# does not depend on the key: 4 links fill the pool, 12 mix each pool word
# into every other, and 8 links of a second chain draw the 8 uint32 words of
# generate_state(4, uint64).  Each link is an (xor, multiplier) pair.
_WORD = 1 << 32
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_chain(init: int, mult: int,
                links: int) -> tuple[tuple[int, int], ...]:
    chain = []
    for _ in range(links):
        chain.append((init, init * mult % _WORD))
        init = chain[-1][1]
    return tuple(chain)


_HASHMIX = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_GENERATE = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)


def seed_streams(keys: list[tuple[int, int, int, int]]
                 ) -> list[np.random.Generator]:
    """One stream per 4-field key, in order.

    Each generator equals ``Generator(PCG64(SeedSequence(key)))`` bit for
    bit.  A key whose fields all lie in [0, 2**32) is four entropy words,
    and the SeedSequence hash of all such keys runs as one pass of uint32
    array operations; any other key goes to ``np.random.SeedSequence``
    unchanged, so it hashes, or raises, as NumPy does.
    """
    table = np.array(keys)
    in_range = (((table >= 0) & (table < _WORD)).all(axis=1)
                if table.dtype.kind in "iu"
                else np.zeros(len(keys), dtype=bool))
    hashed_key, tables = _hashing()
    words = iter(_pcg64_states(table[in_range].astype(np.uint32).T, tables))
    return [np.random.Generator(np.random.PCG64(
                hashed_key(key, next(words)) if hashed
                else np.random.SeedSequence(key)))
            for key, hashed in zip(keys, in_range.tolist())]


def _pcg64_states(words: np.ndarray, tables: tuple) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, uint64)`` of each column of a
    4 x n uint32 word array, as n x 4, in wrapping uint32 arithmetic.

    NumPy mixes pool word ``src`` into each other word ``dst`` in turn,
    ``dst = mix(dst, hashmix(src))`` with ``mix(x, y) = L x - R y`` shifted
    like hashmix.  The three updates of one ``src`` read only that
    unchanged word and their own, so they run as one operation over the
    pool, whose ``src`` row is then restored.
    """
    fill, mixing, generate = tables

    def hashmix(values, links):
        values = values ^ links[0]
        values *= links[1]
        return values ^ (values >> 16)

    pool = hashmix(words, fill)
    for src, links in enumerate(mixing):
        kept = pool[src].copy()
        pool = _MIX_L * pool - _MIX_R * hashmix(pool[src], links)
        pool ^= pool >> 16
        pool[src] = kept
    state = hashmix(np.concatenate((pool, pool)), generate)
    # little-endian word pairs, as generate_state forms its uint64 words
    return np.ascontiguousarray(state.T).astype("<u4", copy=False).view(
        "<u8").astype(np.uint64, copy=False)


@cache
def _hashing() -> tuple[type, tuple]:
    """The seed type and uint32 link columns of ``seed_streams``, made on
    first use so that importing asymx loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedKey(ISeedSequence):
        """A SeedSequence key whose PCG64 state words are hashed already."""

        __slots__ = ("entropy", "_words")

        def __init__(self, entropy: tuple, words: np.ndarray) -> None:
            self.entropy, self._words = entropy, words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return self._words
            return np.random.SeedSequence(self.entropy).generate_state(
                n_words, dtype)

        def __reduce__(self):
            return np.random.SeedSequence, (self.entropy,)

    def columns(links):
        """(xor, multiplier) links as two stacked uint32 columns."""
        return np.array(links, dtype=np.uint32).T[..., None]

    # a pool word is not mixed into itself: the link (0, 1) holds its
    # place and its result is discarded
    mixing = iter(_HASHMIX[4:])
    return HashedKey, (
        columns(_HASHMIX[:4]),
        [columns([(0, 1) if src == dst else next(mixing) for dst in range(4)])
         for src in range(4)],
        columns(_GENERATE))
