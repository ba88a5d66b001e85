"""Exact Hamilton and cycle counts for complete multipartite graphs, computed
through cyclic words instead of graph search.

A Hamilton cycle of the complete multipartite graph with class sizes
``(c_1, ..., c_k)`` corresponds to a length-n word over the alphabet
``{1..k}`` that uses letter i exactly c_i times and never repeats a letter in
two cyclically adjacent positions, together with an ordering of each vertex
class.  Counting those words exactly therefore counts Hamilton cycles exactly,
with a factor ``prod(c_i!) / (2n)`` for the class orderings, the starting
point, and the traversal direction.

The word count is a memoized DP.  Its state keeps only the sorted multiset of
remaining letter multiplicities, plus the remaining multiplicity of the word's
first letter (the cyclic closure constrains it) and of the letter just placed
(the next letter must differ).  Letters with equal remaining multiplicity and
no pending constraint are interchangeable, which collapses the state space far
enough to handle n up to ~60.

Class indices are 1-based throughout this module, matching the alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .graphs import ClassVector, as_class_vector, falling_factorial, turan_class_sizes


@dataclass(frozen=True)
class CodeClassSpec:
    """Letter content (class sizes) plus an optional rooted prefix.

    ``rooted=(i, j)`` restricts to words starting with letter i followed by
    letter j; both 1-based, i != j, and both letters must occur.
    """

    content: tuple[int, ...]
    rooted: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        as_class_vector(self.content)
        if self.rooted is not None:
            i, j = self.rooted
            k = len(self.content)
            if not (1 <= i <= k and 1 <= j <= k):
                raise ValueError("rooted letters out of range")
            if i == j:
                raise ValueError("rooted letters must differ")


def _insert(sorted_counts: tuple[int, ...], value: int) -> tuple[int, ...]:
    if value == 0:
        return sorted_counts
    out = list(sorted_counts)
    lo = 0
    while lo < len(out) and out[lo] < value:
        lo += 1
    out.insert(lo, value)
    return tuple(out)


@lru_cache(maxsize=None)
def _complete(others: tuple[int, ...], first_rem: int, last_rem: int, last_is_first: bool) -> int:
    """Count completions of a partially placed cyclic word.

    ``others``: sorted remaining multiplicities of letters that are neither
    the word's first letter nor the letter just placed.  ``first_rem``:
    remaining copies of the first letter (meaningful only when it is not the
    letter just placed).  ``last_rem``: remaining copies of the letter just
    placed.  The completed word must end with a letter different from the
    first (cyclic adjacency).
    """
    remaining = sum(others) + last_rem + (0 if last_is_first else first_rem)
    if remaining == 0:
        return 0 if last_is_first else 1
    ways = 0
    if not last_is_first and first_rem:
        ways += _complete(_insert(others, last_rem), first_rem - 1, first_rem - 1, True)
    prev = None
    for idx, r in enumerate(others):
        if r == prev:
            continue
        prev = r
        mult = others.count(r)
        rest = others[:idx] + others[idx + 1 :]
        if last_is_first:
            # the first letter goes back to being tracked via first_rem
            ways += mult * _complete(rest, last_rem, r - 1, False)
        else:
            ways += mult * _complete(_insert(rest, last_rem), first_rem, r - 1, False)
    return ways


def _cyclic_word_count(parts: Sequence[int]) -> int:
    """Words with the given letter content, cyclically adjacent letters distinct."""
    counts = tuple(x for x in parts if x)
    n = sum(counts)
    if n == 0:
        return 1
    if len(counts) == 1:
        return 0
    total = 0
    seen = set()
    for idx, r in enumerate(counts):
        if r in seen:
            continue
        seen.add(r)
        mult = counts.count(r)
        rest = tuple(sorted(counts[:idx] + counts[idx + 1 :]))
        total += mult * _complete(rest, r - 1, r - 1, True)
    return total


def _rooted_word_count(parts: Sequence[int], i: int, j: int) -> int:
    """Cyclic words as above with first letter i and second letter j (1-based)."""
    if i == j:
        raise ValueError("rooted letters must differ")
    ci, cj = parts[i - 1], parts[j - 1]
    if ci < 1 or cj < 1:
        raise ValueError("rooted letters exceed content")
    rest = tuple(
        sorted(c for idx, c in enumerate(parts) if idx not in (i - 1, j - 1) and c > 0)
    )
    return _complete(rest, ci - 1, cj - 1, False)


def code_cycle_count(spec: CodeClassSpec | ClassVector | Sequence[int]) -> int:
    """Exact number of cyclically adjacent-distinct words with given content,
    honoring the rooted prefix when present."""
    if isinstance(spec, CodeClassSpec):
        if spec.rooted is None:
            return _cyclic_word_count(spec.content)
        return _rooted_word_count(spec.content, *spec.rooted)
    return _cyclic_word_count(as_class_vector(spec).parts)


def prob_Q_given_P(c: ClassVector | Sequence[int]) -> Fraction:
    """P[cyclically adjacent-distinct | letter content = c] for uniform words."""
    cv = as_class_vector(c)
    n = cv.n
    arrangements = factorial(n)
    for ci in cv.parts:
        arrangements //= factorial(ci)
    return Fraction(_cyclic_word_count(cv.parts), arrangements)


def hamilton_multipartite(c: ClassVector | Sequence[int]) -> int:
    """Number of Hamilton cycles of the complete multipartite graph on classes c."""
    cv = as_class_vector(c)
    n = cv.n
    if n < 3:
        raise ValueError("Hamilton cycles need at least 3 vertices")
    numerator = _cyclic_word_count(cv.parts)
    for ci in cv.parts:
        numerator *= factorial(ci)
    if numerator % (2 * n):
        raise ArithmeticError(
            f"word count not divisible by 2n for c={cv.parts}: implementation bug"
        )
    return numerator // (2 * n)


def rooted_hamilton_permutations(c: ClassVector | Sequence[int], j: int) -> int:
    """Orderings v_1..v_n forming a Hamilton cycle with v_1 a fixed vertex of
    class 1 and v_2 in class j (1-based, j != 1).

    These are orderings, not cycles: the two traversal directions of one cycle
    are both counted when their second vertex lies in class j, so summing over
    j gives twice the rooted cycle count.
    """
    cv = as_class_vector(c)
    if j == 1:
        raise ValueError("second class must differ from the root class 1")
    if not 2 <= j <= cv.k:
        raise ValueError(f"class index {j} out of range 2..{cv.k}")
    count = _rooted_word_count(cv.parts, 1, j)
    out = factorial(cv.parts[0] - 1)
    for ci in cv.parts[1:]:
        out *= factorial(ci)
    return out * count


def rooted_hamilton_permutations_general(
    c: ClassVector | Sequence[int], i: int, j: int
) -> int:
    """Same as :func:`rooted_hamilton_permutations` with the root in class i."""
    cv = as_class_vector(c)
    if not (1 <= i <= cv.k and 1 <= j <= cv.k):
        raise ValueError("class index out of range")
    count = _rooted_word_count(cv.parts, i, j)
    out = factorial(cv.parts[i - 1] - 1)
    for idx, ci in enumerate(cv.parts):
        if idx != i - 1:
            out *= factorial(ci)
    return out * count


@lru_cache(maxsize=None)
def _hamilton_sorted(parts: tuple[int, ...]) -> int:
    n = sum(parts)
    if n < 3 or len(parts) == 1:
        return 0
    numerator = _cyclic_word_count(parts)
    for ci in parts:
        numerator *= factorial(ci)
    if numerator % (2 * n):
        raise ArithmeticError(
            f"word count not divisible by 2n for c={parts}: implementation bug"
        )
    return numerator // (2 * n)


def cycle_spectrum_multipartite(
    c: ClassVector | Sequence[int], *, max_n: int = 40
) -> dict[int, int]:
    """Per-length cycle counts of the complete multipartite graph on classes c.

    A length-r cycle is a choice of a_i vertices from each class (sum r)
    together with a Hamilton cycle of the induced complete multipartite
    subgraph, so the spectrum is a sum of binomial products against Hamilton
    counts of the sub-vectors, memoized on their sorted form.
    """
    cv = as_class_vector(c)
    if cv.n > max_n:
        raise ValueError(f"analytic spectrum capped at {max_n} vertices")
    spectrum: dict[int, int] = {}
    parts = cv.parts
    k = cv.k
    sub = [0] * k

    def descend(idx: int, chosen: int, coeff: int) -> None:
        if idx == k:
            if chosen >= 3:
                h = _hamilton_sorted(tuple(sorted(a for a in sub if a)))
                if h:
                    spectrum[chosen] = spectrum.get(chosen, 0) + coeff * h
            return
        for a in range(parts[idx] + 1):
            sub[idx] = a
            descend(idx + 1, chosen + a, coeff * comb(parts[idx], a))
        sub[idx] = 0

    descend(0, 0, 1)
    return dict(sorted(spectrum.items()))


def bipartite_cycle_counts(n: int) -> tuple[dict[int, int], int]:
    """Closed-form cycle spectrum of the balanced complete bipartite graph on n
    vertices, plus its total.

    A cycle of length 2r picks and orders r vertices on each side:
    falling(t, r) * falling(t', r) / (2r) cycles with t = floor(n/2),
    t' = ceil(n/2).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    t, t_up = n // 2, (n + 1) // 2
    spectrum: dict[int, int] = {}
    for r in range(2, t + 1):
        num = falling_factorial(t, r) * falling_factorial(t_up, r)
        if num % (2 * r):
            raise ArithmeticError(f"falling-factorial product not divisible by 2r at n={n}, r={r}")
        spectrum[2 * r] = num // (2 * r)
    return spectrum, sum(spectrum.values())


def balanced_vector(n: int, k: int) -> ClassVector:
    """Class sizes of the Turán graph T_k(n) as a ClassVector."""
    return ClassVector(turan_class_sizes(n, k))


def clear_caches() -> None:
    _complete.cache_clear()
    _hamilton_sorted.cache_clear()
