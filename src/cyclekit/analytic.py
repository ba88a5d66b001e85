"""Exact Hamilton and cycle counts for complete multipartite graphs, computed
through cyclic words instead of graph search.

A Hamilton cycle of the complete multipartite graph with class sizes
``(c_1, ..., c_k)`` corresponds to a length-n word over the alphabet
``{1..k}`` that uses letter i exactly c_i times and never repeats a letter in
two cyclically adjacent positions, together with an ordering of each vertex
class.  Counting those words exactly therefore counts Hamilton cycles exactly,
with a factor ``prod(c_i!) / (2n)`` for the class orderings, the starting
point, and the traversal direction.

Words are counted by inclusion-exclusion over equal adjacencies, the
Smirnov/Carlitz-word technique of Flajolet & Sedgewick, *Analytic
Combinatorics*, Ex. III.24: cutting a word into J monochrome blocks with sign
(-1)^(n-J) leaves exactly the words with no equal neighbours.  The c copies of
one letter form j blocks in C(c-1, j-1) ways, so a letter class has the
exponential generating function (EGF) with integer coefficients
``e_j = C(c-1, j-1)``, j = 1..c, and the block sequences of a content are the
exponential convolution ``(a*b)_J = sum_i C(J, i) a_i b_(J-i)`` of its
classes' EGFs.  Every value is a Python int; nothing is rational or a float.

- **Cyclic word count.**  A cycle of n positions cut into J blocks in a given
  cyclic order admits n / J placements, so with e the product EGF,
  ``W = n * sum_J (-1)^(n-J) e_J / J``, evaluated as an integer sum scaled by
  n!.  A one-letter content has no such word and gives 0.
- **Rooted count** (w_1 = letter i, w_2 = letter j).  Dropping one i and one
  j leaves a linear word on m letters whose first letter is not j and whose
  last is not i.  With B the EGF product of the other classes and E' the EGF
  shifted left by one (its derivative, which marks the first or last block),
  ``R = sum_J (-1)^(m-J) ((B E_i E_j)_J - (B E_i E_j')_(J-1)
  - (B E_i' E_j)_(J-1) + (B E_i' E_j')_(J-2))``.  Shifting the index folds
  the four terms into one product with ``E + E'``, whose coefficients for a
  class of d copies are ``C(d, t)``, t = 0..d.  No division is involved; m = 0
  gives 1.
- **Spectrum.**  A length-r cycle picks a_i vertices of each class and a
  Hamilton cycle on them, so one bivariate product
  ``prod_i sum_a C(c_i, a) a! E_a(t) u^a`` holds, at u^r, the summed EGFs of
  every sub-content of size r with its vertex choices and orderings.  The
  cyclic closure of that coefficient counts them all, except that each
  one-class sub-content contributes the closure ``W_1(r)`` of the lone EGF
  E_r, which is not 0; those C(c_i, r) r! W_1(r) terms are subtracted and the
  rest divided by 2r.

Every exact division (by n!, by 2r, by 2n) is checked and raises
``ArithmeticError`` on a remainder.  Word counts are memoized on the
canonical content (sorted counts, and the sorted counts of the two rooted
letters after the drop) in one bounded cache.  The work is polynomial in n,
so the only size cap is the 64 vertices of a ``ClassVector``.

Class indices are 1-based throughout this module, matching the alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .graphs import ClassVector, as_class_vector, falling_factorial


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


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what} not divisible by {denominator}: implementation bug")
    return quotient


def _class_egf(c: int) -> list[int]:
    """Blocks of c copies of one letter: e_j = C(c-1, j-1); the empty class is 1."""
    if c == 0:
        return [1]
    return [0] + [comb(c - 1, j - 1) for j in range(1, c + 1)]


def _add_product(out: list[int], a: list[int], b: list[int]) -> None:
    """out += the exponential convolution of a and b."""
    for i, x in enumerate(a):
        if x:
            for t, y in enumerate(b, i):
                out[t] += comb(t, i) * x * y


def _egf_product(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    _add_product(out, a, b)
    return out


def _cyclic_closure(e: list[int], n: int) -> int:
    """n * sum_J (-1)^(n-J) e_J / J, for the block EGF e of an n-letter content."""
    scale = factorial(n)
    scaled = sum((-1) ** (n - j) * x * (scale // j) for j, x in enumerate(e) if j)
    return _exact_div(n * scaled, scale, f"cyclic closure at n={n}")


@lru_cache(maxsize=4096)
def _word_count(content: tuple[int, ...], rooted: tuple[int, int] | None) -> int:
    """Cyclic word count of the sorted ``content``; with ``rooted=(d, d')``, the
    rooted count whose two prefix letters have d and d' copies left after the
    drop and the other letters have ``content``."""
    e = [1]
    for c in content:
        e = _egf_product(e, _class_egf(c))
    if rooted is None:
        return 0 if len(content) == 1 else _cyclic_closure(e, sum(content))
    for d in rooted:
        e = _egf_product(e, [comb(d, t) for t in range(d + 1)])
    m = len(e) - 1
    return sum((-1) ** (m - j) * x for j, x in enumerate(e))


def _cyclic_word_count(parts: Sequence[int]) -> int:
    """Words with the given letter content, cyclically adjacent letters distinct."""
    return _word_count(tuple(sorted(parts)), None)


def _rooted_word_count(parts: Sequence[int], i: int, j: int) -> int:
    """Cyclic words as above with first letter i and second letter j (1-based)."""
    if i == j:
        raise ValueError("rooted letters must differ")
    ci, cj = parts[i - 1], parts[j - 1]
    if ci < 1 or cj < 1:
        raise ValueError("rooted letters exceed content")
    rest = tuple(sorted(c for idx, c in enumerate(parts) if idx not in (i - 1, j - 1) and c > 0))
    # reading a word backwards from its second letter swaps the roles of i and
    # j, so the count is symmetric in the two and the key sorts them
    return _word_count(rest, tuple(sorted((ci - 1, cj - 1))))


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
    return _exact_div(numerator, 2 * n, f"word count times class orderings for c={cv.parts}")


def rooted_hamilton_permutations(c: ClassVector | Sequence[int], j: int) -> int:
    """Orderings v_1..v_n forming a Hamilton cycle with v_1 a fixed vertex of
    class 1 and v_2 in class j (1-based, j != 1).

    These are orderings, not cycles: the two traversal directions of one cycle
    are both counted when their second vertex lies in class j, so summing over
    j gives twice the rooted cycle count.
    """
    if j == 1:
        raise ValueError("second class must differ from the root class 1")
    return rooted_hamilton_permutations_general(c, 1, j)


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


def cycle_spectrum_multipartite(c: ClassVector | Sequence[int]) -> dict[int, int]:
    """Per-length cycle counts of the complete multipartite graph on classes c.

    ``rows[r]`` is the u^r coefficient of prod_i sum_a C(c_i, a) a! E_a(t) u^a,
    a block EGF in t; its cyclic closure, less the one-class terms, is 2r
    times the number of r-cycles.
    """
    cv = as_class_vector(c)
    rows = [[1]]
    for size in cv.parts:
        factor = [[comb(size, a) * factorial(a) * x for x in _class_egf(a)] for a in range(size + 1)]
        grown = [[0] * (r + 1) for r in range(len(rows) + size)]
        for r, row in enumerate(rows):
            for a, block in enumerate(factor):
                _add_product(grown[r + a], row, block)
        rows = grown
    spectrum: dict[int, int] = {}
    for r in range(3, cv.n + 1):
        one_class = sum(comb(size, r) for size in cv.parts) * factorial(r)
        closed = _cyclic_closure(rows[r], r) - one_class * _cyclic_closure(_class_egf(r), r)
        count = _exact_div(closed, 2 * r, f"length-{r} closure for c={cv.parts}")
        if count:
            spectrum[r] = count
    return spectrum


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
        spectrum[2 * r] = _exact_div(num, 2 * r, f"falling-factorial product at n={n}, r={r}")
    return spectrum, sum(spectrum.values())
