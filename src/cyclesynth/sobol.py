"""Scrambled Sobol' points from numpy alone.

The Worker's initial designs and acquisition starts, and the surrogate's
training inputs, are scrambled Sobol' points.  This engine reproduces,
bit for bit, scipy's `Sobol(d, scramble=True)` engine with its default
30 bits (as of scipy 1.17), so the library does not import scipy's
statistics subpackage, and its points do not depend on the scipy version:

- the direction numbers are Joe and Kuo's (search criterion 6; S. Joe
  and F. Y. Kuo, SIAM J. Sci. Comput. 30, 2635-2654, 2008), for the
  first MAX_DIM dimensions;
- a Generator passed as rng is not drawn from: the engine spawns one
  child from its seed sequence and draws from the child, so several
  engines on one parent differ; any other rng is a seed for
  `np.random.default_rng`;
- the scramble draws a random digital shift, then one random lower
  triangular bit matrix per dimension (a linear matrix scramble, LMS)
  that multiplies the direction numbers over GF(2);
- the first point is the shift, and point i is point i - 1 XOR the
  direction number of the lowest set bit of i (Gray-code order), so
  successive `random` calls continue one sequence.
"""

from __future__ import annotations

import numpy as np

BITS = 30
MAX_DIM = 64   # a 16-node Worker has at most 56 coordinates

# Dimensions 2 to MAX_DIM: (primitive polynomial, initial direction numbers
# m_1 .. m_s).  The polynomial is a bit mask with x^s as its top bit; s is
# its degree.  Dimension 1 has every direction number 1.
_DIRECTIONS = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)), (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)), (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)), (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)), (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)), (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)),
    (425, (1, 1, 3, 1, 11, 31, 97, 225)), (451, (1, 1, 1, 3, 23, 43, 57, 177)),
    (463, (1, 3, 7, 7, 17, 17, 37, 71)), (487, (1, 3, 1, 5, 27, 63, 123, 213)),
    (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)

_SHIFTS = np.arange(BITS - 1, -1, -1, dtype=np.uint32)
_MSB_FIRST = 1 << _SHIFTS   # bit weights, most significant bit first


def _direction_numbers() -> np.ndarray:
    """(MAX_DIM, BITS) direction numbers, as BITS-bit fractions."""
    rows = [[1] * BITS]
    for poly, m_init in _DIRECTIONS:
        s = len(m_init)
        m = list(m_init)
        for j in range(s, BITS):
            new = m[j - s]
            for k in range(s):
                if (poly >> (s - 1 - k)) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        rows.append(m)
    return np.array(rows, dtype=np.uint32) * _MSB_FIRST


_V = _direction_numbers()


class Sobol:
    """Scrambled Sobol' points in [0, 1)^d; see the module docstring."""

    def __init__(self, d: int, rng) -> None:
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"dimension {d} is outside 1..{MAX_DIM}")
        if isinstance(rng, np.random.Generator):
            # numpy 1.24 has no Generator.spawn
            bg = rng.bit_generator
            rng = np.random.Generator(type(bg)(bg._seed_seq.spawn(1)[0]))
        else:
            rng = np.random.default_rng(rng)
        self.d = d
        self.n_generated = 0
        shift = rng.integers(0, 2, (d, BITS), dtype=np.uint32) \
            @ (1 << np.arange(BITS, dtype=np.uint32))
        ltm = np.tril(rng.integers(0, 2, (d, BITS, BITS), dtype=np.uint32)) \
            | np.eye(BITS, dtype=np.uint32)
        # bit p (from the top) of a scrambled number is the parity of row
        # p of its dimension's matrix AND the direction number's bits
        bits = (_V[:d, :, None] >> _SHIFTS) & 1
        self._v = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ _MSB_FIRST
        self._quasi = shift   # the last point drawn, or the shift

    def random(self, n: int = 1) -> np.ndarray:
        """The next n points, an (n, d) float64 array."""
        start = self.n_generated
        if start + n > 1 << BITS:
            raise ValueError(f"at most 2**{BITS} points can be drawn")
        if n == 0:
            return np.empty((0, self.d))
        i = np.arange(max(start, 1), start + n)
        low_bit = np.frexp(i & -i)[1] - 1   # exact: i & -i is a power of 2
        q = np.bitwise_xor.accumulate(self._v[:, low_bit].T, axis=0) \
            ^ self._quasi
        if start == 0:
            q = np.vstack([self._quasi[None, :], q])
        self._quasi = q[-1]
        self.n_generated = start + n
        return q * 2.0 ** -BITS
