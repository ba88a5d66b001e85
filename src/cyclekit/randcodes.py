"""Monte Carlo estimators for uniform-random-word events, cross-validating
the exact counts.

Streams are drawn from PCG64 generators seeded through SeedSequence spawn
keys, so every estimate is reproducible from (seed, stream) regardless of
how calls are interleaved.

:func:`estimate_prob` draws its words in chunks of at most ``_CHUNK_LETTERS``
letters and keeps only the running hit count, so its memory is bounded
independently of the sample count.  A generator's draws are sequential in C
order, so the chunked words are exactly those of one ``samples x n`` draw.
A chunk is drawn as int32 (4 MB) when ``k + 1 < 2**31``: below a range of
2^32 numpy fills int32 and int64 arrays from the same buffered 32-bit
Lemire draws, so the words equal those of an int64 draw.  Each chunk is
then narrowed to the least dtype that holds k and transposed, one
contiguous row per position, and the events are tested by reductions over
the positions, which numpy takes one contiguous row at a time: Q ANDs the
n cyclic neighbour comparisons, P counts each letter of the content in a
dtype that holds n, and QP tests the content only of the words in Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from typing import Sequence

import numpy as np

from .analytic import code_cycle_count

EVENTS = ("Q", "P", "QP")
# Letters per chunk of draws in estimate_prob: 4 MB of int32 whatever n is.
_CHUNK_LETTERS = 2**20
# Largest k drawn as int32; words over larger alphabets are drawn as int64.
_INT32_K_MAX = 2**31 - 2


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"the seed must be a nonnegative integer, got seed={seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


@dataclass(frozen=True)
class ProbEstimate:
    estimate: float
    stderr: float
    hits: int
    samples: int


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_LETTERS // n)


def _draw(rng: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray:
    """The next ``rows`` words of the stream, as an ``n x rows`` array: one
    contiguous row per position, in the least dtype that holds k."""
    dtype = np.int32 if k <= _INT32_K_MAX else np.int64
    words = rng.integers(1, k + 1, size=(rows, n), dtype=dtype)
    return words.astype(np.min_scalar_type(k)).T.copy()


def _in_q(w: np.ndarray) -> np.ndarray:
    """Which columns of the position rows ``w`` are cyclically
    adjacent-distinct words."""
    return np.all(w[1:] != w[:-1], axis=0) & (w[0] != w[-1])


def _has_content(w: np.ndarray, content: Sequence[int]) -> np.ndarray:
    """Which columns of the position rows ``w`` have letter content
    ``content`` (zero-padded).  The parts sum to n, so a word in which every
    letter with a positive part has its count has no other letter."""
    ok = np.ones(w.shape[1], dtype=bool)
    dtype = np.min_scalar_type(len(w))
    for letter, want in enumerate(content, start=1):
        if want:
            ok &= (w == letter).sum(axis=0, dtype=dtype) == want
    return ok


def _hits(w: np.ndarray, event: str, content: Sequence[int] | None) -> int:
    if event == "Q":
        return int(np.count_nonzero(_in_q(w)))
    if event == "QP":
        w = w[:, _in_q(w)]
    return int(np.count_nonzero(_has_content(w, content)))


def _check_event(n: int, k: int, event: str, content: Sequence[int] | None) -> None:
    if event not in EVENTS:
        raise ValueError(f"event must be one of {EVENTS}")
    if n < 1:
        raise ValueError(f"words need at least one letter, got n={n}")
    if k < 1:
        raise ValueError(f"the alphabet needs at least one letter, got k={k}")
    if event in ("P", "QP"):
        if content is None:
            raise ValueError(f"event {event} needs a content vector")
        if len(content) > k:
            raise ValueError(f"content has {len(content)} parts but the alphabet has k={k} letters")
        if any(c < 0 for c in content):
            raise ValueError("content parts must be nonnegative")
        if sum(content) != n:
            raise ValueError("content must sum to n")
    elif content is not None:
        raise ValueError(f"event {event} takes no content vector")


def estimate_prob(
    n: int,
    k: int,
    event: str,
    samples: int,
    seed: int,
    content: Sequence[int] | None = None,
) -> ProbEstimate:
    """Frequency estimate with standard error for one of the word events:
    "Q" (cyclically adjacent-distinct), "P" (fixed letter content), or "QP"
    (both).  P and QP need ``content``, zero-padded to k letters if shorter.
    Memory is bounded independently of ``samples``.
    """
    _check_event(n, k, event, content)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = _rng(seed)
    rows = _chunk_rows(n)
    hits = 0
    for start in range(0, samples, rows):
        # passed straight in, so a chunk is freed before the next is drawn
        hits += _hits(_draw(rng, min(rows, samples - start), n, k), event, content)
    p = hits / samples
    return ProbEstimate(
        estimate=p, stderr=sqrt(p * (1 - p) / samples), hits=hits, samples=samples
    )


def exact_prob(n: int, k: int, event: str, content: Sequence[int] | None = None) -> Fraction:
    """The exact probability that :func:`estimate_prob` estimates, for
    arguments it accepts."""
    _check_event(n, k, event, content)
    if event == "Q":
        return Fraction((k - 1) ** n + (-1) ** n * (k - 1), k**n)
    ways = factorial(n)
    for c in content:
        ways //= factorial(c)
    if event == "P":
        return Fraction(ways, k**n)
    return Fraction(code_cycle_count(tuple(x for x in content if x)), k**n)
