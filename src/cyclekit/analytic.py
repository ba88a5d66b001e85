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
exponential generating function (EGF) ``sum_j C(c-1, j-1) t^j / j!``, and
the block sequences of a content are the product of its classes' EGFs.
Scaled by c!, a class's EGF is an ordinary polynomial with integer
coefficients ``C(c-1, j-1) c!/j!``, j = 1..c.  So with p the ordinary
product of the scaled class polynomials and S the product of the scales,
the EGF coefficient of J blocks is ``e_J = J! p_J / S``.  Every value is a
Python int; nothing is rational or a float.

- **Cyclic word count.**  A cycle of n positions cut into J blocks in a given
  cyclic order admits n / J placements, so
  ``W = n * sum_J (-1)^(n-J) e_J / J = n * sum_J (-1)^(n-J) (J-1)! p_J / S``.
  A one-letter content has no such word and gives 0.
- **Rooted count** (w_1 = letter i, w_2 = letter j).  Dropping one i and one
  j leaves a linear word on m letters whose first letter is not j and whose
  last is not i.  With B the EGF product of the other classes and E' the EGF
  shifted left by one (its derivative, which marks the first or last block),
  ``R = sum_J (-1)^(m-J) ((B E_i E_j)_J - (B E_i E_j')_(J-1)
  - (B E_i' E_j)_(J-1) + (B E_i' E_j')_(J-2))``.  Shifting the index folds
  the four terms into one product with ``E + E'``, whose EGF coefficients for
  a class of d copies are ``C(d, t)``, t = 0..d; scaled by d! they are the
  integers ``C(d, t) d!/t!``.  So ``R = sum_J (-1)^(m-J) J! p_J / S``, with
  the two rooted scales d! in S; m = 0 gives 1.
- **Spectrum.**  A length-r cycle picks a_i vertices of each class and a
  Hamilton cycle on them, so one bivariate product
  ``prod_i sum_a C(c_i, a) a! E_a(t) u^a`` holds, at u^r, the summed EGFs of
  every sub-content of size r with its vertex choices and orderings.  Its
  a! is the scale of E_a, so in ordinary form the factor is already integer,
  ``C(c_i, a)`` times the scaled block polynomial of a copies, and the
  closure ``r * sum_J (-1)^(r-J) (J-1)! p_J`` of the u^r row needs no
  division.  It counts every sub-content, except that a one-class
  sub-content closes to ``(-1)^(r+1)`` words, not 0; those
  ``C(c_i, r) r! (-1)^(r+1)`` terms are subtracted and the rest divided by
  2r.

**Packed products.**  Every product is a product of big integers, by
Kronecker substitution (D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009): a
polynomial's coefficients go into byte slots of one fixed width in one int,
lowest degree lowest, multiplying two such ints multiplies the polynomials,
and the coefficients are read back slot by slot.  That is exact while no
slot carries into the next.  Every coefficient is nonnegative and every
factor F_i has a coefficient sum F_i(1) >= 1, so every coefficient of every
partial product, and of every sum of them, is at most the coefficient sum
``prod_i F_i(1)`` of the whole product; slots wide enough to hold that
bound never carry.  A word count packs its class polynomials (equal ones
once, raised to their number), multiplies them, unpacks once and applies
the closure.  The spectrum fixes one slot width for the bivariate product up
front and keeps one packed int per power of u; each class adds its factor
by ``grown[r + a] += rows[r] * block[a]``, and each row is unpacked once at
the end.  Packing the powers of u into the same int instead would pad every
row to n + 1 slots.  A polynomial is packed once per slot width and kept in
a bounded memo, so equal classes of a spectrum, and the word counts of a
suite that meet a class size again at the same width, reuse its pack.
Slots are read back by shift and mask.  Each shift copies the whole int, so
a run of more than 32 slots is halved first, which keeps the unpacking
near-linear in the size of the int.  Before it reads, the unpacking checks
that the int fits in its slots and raises ``ArithmeticError`` if not: a
carry out of the top slot means the slot width was too small.

Every exact division (by S, by 2r, by 2n) is checked and raises
``ArithmeticError`` on a remainder.  Word counts are memoized on the
canonical content (sorted counts, and the sorted counts of the two rooted
letters after the drop) in one bounded cache, sized so that no suite run
evicts (``verify major --n-max 30 --k-max 5`` asks for 5,324 distinct
contents, and every suite and ``analytic`` job of one benchmark ``sweep``
pass together for about 7,400).  ``prob_Q_given_P`` is memoized per
composition, in lowest terms as two ints, in a cache of the same size; a
composition is validated on its first call, and ``verify major`` compares
these pairs by cross-multiplication.  The work is polynomial in n, so the
only size cap is the 64 vertices that ``graphs.class_sizes`` allows.

Class indices are 1-based throughout this module, matching the alphabet.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial, gcd, perm, prod
from operator import mul
from typing import Sequence

from .graphs import class_sizes


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what} not divisible by {denominator}: implementation bug")
    return quotient


# ``class_sizes`` caps every class at 64 vertices, so the unbounded
# caches below hold at most 65 entries each
@lru_cache(maxsize=None)
def _block_poly(c: int) -> tuple[int, ...]:
    """Blocks of c copies of one letter as an ordinary polynomial scaled by
    c!: ``C(c-1, j-1) c!/j!`` at t^j; the empty class is 1."""
    if c == 0:
        return (1,)
    scale = factorial(c)
    return (0,) + tuple(comb(c - 1, j - 1) * (scale // factorial(j)) for j in range(1, c + 1))


@lru_cache(maxsize=None)
def _rooted_poly(d: int) -> tuple[int, ...]:
    """The rooted factor ``E + E'`` of a letter with d copies left, scaled by
    d!: ``C(d, j) d!/j!`` at t^j."""
    scale = factorial(d)
    return tuple(comb(d, j) * (scale // factorial(j)) for j in range(d + 1))


def _slot_width(bound: int) -> int:
    """Bytes per packed slot that hold every integer from 0 to ``bound``."""
    return (bound.bit_length() + 7) // 8


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The nonnegative ``coeffs`` as one integer, ``width`` bytes per slot,
    lowest degree in the lowest bytes."""
    return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in coeffs]), "little")


@lru_cache(maxsize=1024)
def _packed(coeffs: tuple[int, ...], width: int) -> int:
    """:func:`_pack` memoized: a block polynomial is packed once per slot
    width."""
    return _pack(coeffs, width)


def _unpack(packed: int, width: int, length: int) -> list[int]:
    """The ``length`` slots of ``packed``, inverting :func:`_pack`; raises
    ``ArithmeticError`` when ``packed`` does not fit in them."""
    bits = 8 * width
    if packed >> (bits * length):
        raise ArithmeticError(f"packed value exceeds {length} slots of {width} bytes: implementation bug")
    return _slots(packed, bits, length)


def _slots(packed: int, bits: int, length: int) -> list[int]:
    """The ``length`` slots of ``bits`` bits of ``packed``, read by shift and
    mask.  Each shift copies the whole int, so a long run is halved first,
    which keeps the copying near-linear."""
    if length > 32:
        half = length // 2
        low = _slots(packed & ((1 << bits * half) - 1), bits, half)
        return low + _slots(packed >> bits * half, bits, length - half)
    mask = (1 << bits) - 1
    return [packed >> shift & mask for shift in range(0, bits * length, bits)]


def _poly_product(polys: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of the product of polynomials with nonnegative integer
    coefficients, none of them 0, multiplied as packed integers; a run of
    equal polynomials is packed once and raised to its length.  Each factor's
    coefficient sum is at least 1, so no coefficient of a partial product
    exceeds the coefficient sum of the whole product, and slots that hold it
    never carry into each other."""
    width = _slot_width(prod(sum(p) for p in polys))
    packed = 1
    for p, run in groupby(polys):
        packed *= _packed(p, width) ** len(list(run))
    return _unpack(packed, width, sum(len(p) - 1 for p in polys) + 1)


@lru_cache(maxsize=None)
def _signed_factorials(n: int) -> tuple[int, ...]:
    """(-1)^(n-j) j! for j = 0..n."""
    return tuple((-1) ** (n - j) * factorial(j) for j in range(n + 1))


def _cyclic_sum(p: Sequence[int], n: int) -> int:
    """n * sum_J (-1)^(n-J) (J-1)! p_J: the cyclic closure of the scaled
    block polynomial p of an n-letter content, times the scale."""
    return n * sum(map(mul, _signed_factorials(n - 1), p[1:]))


@lru_cache(maxsize=8192)
def _word_count(content: tuple[int, ...], rooted: tuple[int, int] | None) -> int:
    """Cyclic word count of the sorted ``content``; with ``rooted=(d, d')``, the
    rooted count whose two prefix letters have d and d' copies left after the
    drop and the other letters have ``content``."""
    if rooted is None and len(content) == 1:
        return 0
    polys = [_block_poly(c) for c in content]
    scale = prod(factorial(c) for c in content)
    if rooted is None:
        closed = _cyclic_sum(_poly_product(polys), sum(content))
        return _exact_div(closed, scale, f"cyclic closure of {content}")
    for d in rooted:
        polys.append(_rooted_poly(d))
        scale *= factorial(d)
    p = _poly_product(polys)
    m = len(p) - 1
    closed = sum(map(mul, _signed_factorials(m), p))
    return _exact_div(closed, scale, f"rooted closure of {content} with {rooted}")


def _cyclic_word_count(parts: Sequence[int]) -> int:
    """Words with the given letter content, cyclically adjacent letters distinct."""
    return _word_count(tuple(sorted(parts)), None)


def _rooted_word_count(parts: Sequence[int], i: int, j: int) -> int:
    """Cyclic words as above with first letter i and second letter j (1-based)."""
    if not (1 <= i <= len(parts) and 1 <= j <= len(parts)):
        raise ValueError("rooted letters out of range")
    if i == j:
        raise ValueError("rooted letters must differ")
    ci, cj = parts[i - 1], parts[j - 1]
    if ci < 1 or cj < 1:
        raise ValueError("rooted letters exceed content")
    rest = list(parts)
    del rest[max(i, j) - 1], rest[min(i, j) - 1]
    rest.sort()
    # reading a word backwards from its second letter swaps the roles of i and
    # j, so the count is symmetric in the two and the key sorts them
    return _word_count(tuple(rest), tuple(sorted((ci - 1, cj - 1))))


def code_cycle_count(parts: Sequence[int], rooted: tuple[int, int] | None = None) -> int:
    """Exact number of cyclically adjacent-distinct words with letter content
    ``parts``; with ``rooted=(i, j)`` (1-based, i != j), only the words whose
    first letter is i and second letter is j."""
    sizes = class_sizes(parts)
    if rooted is None:
        return _cyclic_word_count(sizes)
    return _rooted_word_count(sizes, *rooted)


@lru_cache(maxsize=8192)
def reduced_prob_Q_given_P(parts: tuple[int, ...]) -> tuple[int, int]:
    """:func:`prob_Q_given_P` in lowest terms, as (numerator, denominator),
    memoized on ``parts``, a tuple of class sizes, which is validated on a
    miss."""
    sizes = class_sizes(parts)
    arrangements = factorial(sum(sizes))
    for ci in sizes:
        arrangements //= factorial(ci)
    words = _cyclic_word_count(sizes)
    common = gcd(words, arrangements)
    return words // common, arrangements // common


def prob_Q_given_P(c: Sequence[int]) -> Fraction:
    """P[cyclically adjacent-distinct | letter content = c] for uniform words."""
    return Fraction(*reduced_prob_Q_given_P(class_sizes(c)))


def hamilton_multipartite(c: Sequence[int]) -> int:
    """Number of Hamilton cycles of the complete multipartite graph on classes c."""
    sizes = class_sizes(c)
    n = sum(sizes)
    if n < 3:
        raise ValueError("Hamilton cycles need at least 3 vertices")
    numerator = _cyclic_word_count(sizes)
    for ci in sizes:
        numerator *= factorial(ci)
    return _exact_div(numerator, 2 * n, f"word count times class orderings for c={sizes}")


def rooted_hamilton_permutations_general(c: Sequence[int], i: int, j: int) -> int:
    """Orderings v_1..v_n forming a Hamilton cycle with v_1 a fixed vertex of
    class i and v_2 in class j (1-based, i != j).

    These are orderings, not cycles: the two traversal directions of one cycle
    are both counted when their second vertex lies in class j, so summing over
    j gives twice the rooted cycle count.
    """
    sizes = class_sizes(c)
    count = _rooted_word_count(sizes, i, j)
    # (c_i - 1)! orders the rest of class i, c! every other class
    return prod(map(factorial, sizes)) // sizes[i - 1] * count


@lru_cache(maxsize=None)
def _spectrum_blocks(size: int) -> tuple[tuple[int, ...], ...]:
    """A class of ``size`` vertices in the spectrum product: at u^a, the
    a-vertex choices times the scaled block polynomial of a copies."""
    return tuple(tuple(comb(size, a) * x for x in _block_poly(a)) for a in range(size + 1))


def cycle_spectrum_multipartite(c: Sequence[int]) -> dict[int, int]:
    """Per-length cycle counts of the complete multipartite graph on classes c.

    ``rows[r]`` is the u^r coefficient of prod_i sum_a C(c_i, a) a! E_a(t) u^a,
    a block polynomial in t packed into one integer; its cyclic closure, less
    the one-class terms, is 2r times the number of r-cycles.
    """
    sizes = class_sizes(c)
    classes = [_spectrum_blocks(size) for size in sizes]
    width = _slot_width(prod(sum(map(sum, blocks)) for blocks in classes))
    rows = [1]
    for blocks in classes:
        packed = [_packed(block, width) for block in blocks]
        grown = [0] * (len(rows) + len(packed) - 1)
        for r, row in enumerate(rows):
            for a, block in enumerate(packed):
                grown[r + a] += row * block
        rows = grown
    spectrum: dict[int, int] = {}
    for r in range(3, sum(sizes) + 1):
        # a one-class sub-content of r vertices closes to (-1)^(r+1) words
        one_class = sum(comb(size, r) for size in sizes) * factorial(r)
        closed = _cyclic_sum(_unpack(rows[r], width, r + 1), r) - (-1) ** (r + 1) * one_class
        count = _exact_div(closed, 2 * r, f"length-{r} closure for c={sizes}")
        if count:
            spectrum[r] = count
    return spectrum


def bipartite_cycle_counts(n: int) -> tuple[dict[int, int], int]:
    """Closed-form cycle spectrum of the balanced complete bipartite graph on n
    vertices, plus its total.

    A cycle of length 2r picks and orders r vertices on each side:
    perm(t, r) * perm(t', r) / (2r) cycles with t = floor(n/2),
    t' = ceil(n/2).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    t, t_up = n // 2, (n + 1) // 2
    spectrum: dict[int, int] = {}
    for r in range(2, t + 1):
        num = perm(t, r) * perm(t_up, r)
        spectrum[2 * r] = _exact_div(num, 2 * r, f"falling-factorial product at n={n}, r={r}")
    return spectrum, sum(spectrum.values())
