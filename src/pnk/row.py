"""Distribution rows: integer numerators over one row denominator.

A ``Row`` is the one representation of a finitely supported distribution,
from the kernel to the absorbing solve.  ``nums`` maps each outcome (a
packet set in a kernel row, an absorbing column in a solve) to its weight,
and the probability of an outcome is its weight over ``den``.

- Exact rows hold positive int numerators that sum to ``den`` and are
  reduced: ``gcd(den, *nums) == 1``, so equal distributions have equal
  rows.  ``reduced`` builds one.  Every row the engine computes is exact.
- Float rows have ``den == 1`` and float weights.  ``rounded`` makes one
  from an exact row, once, where a float kernel hands a row out: each
  weight is the nearest double to its exact probability.

Rows are shared (a kernel's memo and star tables hand out the same row to
every caller), so nobody changes one after it is built.  ``Fraction``s are
built only at the API boundary: ``prob`` and ``as_dict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(slots=True)
class Row:
    den: int  # 1 in a float row
    nums: dict

    def prob(self, key):
        """The probability of ``key``: see ``ratio``."""
        return ratio(self.nums.get(key, 0), self.den)

    def as_dict(self) -> dict:
        """Packet set -> probability (a ``Fraction``, or a float in a float
        row), in canonical order: by the sorted members of each set."""
        den = self.den
        return {b: ratio(n, den)
                for b, n in sorted(self.nums.items(), key=_by_members) if n}


def _by_members(item):
    return sorted(item[0])


def ratio(n, den):
    """The probability of weight ``n`` in a row over ``den``: a reduced
    ``Fraction`` for a nonzero int, else ``n`` itself (a float weight, or
    the int 0 off the support)."""
    return Fraction(n, den) if n and type(n) is int else n


def joined(row: Row, s) -> Row:
    """The row of ``b | s`` for ``b`` drawn from ``row``: ``row`` pushed
    forward by union with the set ``s``.  Outcomes that meet sum their
    weights in ``row``'s order; a row that merged is reduced."""
    if not s:
        return row
    nums = row.nums
    out: dict = {}
    for b, p in nums.items():
        b = b | s
        out[b] = out.get(b, 0) + p
    if len(out) < len(nums):
        return reduced(row.den, out)
    return Row(row.den, out)


def mixture(den: int, terms) -> Row:
    """The reduced row of the sum of ``p * r`` over the (weight, row) pairs
    ``terms``, each weight over ``den``: the rows are brought to the lcm of
    their denominators, and outcomes that meet sum their weights in the
    order of ``terms``.  A term's row need not be reduced, nor sum to its
    ``den``.  This is the one weighted sum of exact rows: a choice's row
    (``bigstep._shares``), a bind (``bigstep._bind``),
    a one-step star (``star._one_step``), and a substitution and a cyclic
    class's exits in the absorbing solve (``linalg``)."""
    m = lcm(*[r.den for _, r in terms])
    out: dict = {}
    for p, r in terms:
        f = p * (m // r.den)
        for b, q in r.nums.items():
            out[b] = out.get(b, 0) + f * q
    return reduced(den * m, out)


def rounded(row: Row) -> Row:
    """The float row of the exact ``row``: int/int division is correctly
    rounded, so each weight is the double nearest its probability."""
    den = row.den
    return Row(1, {b: n / den for b, n in row.nums.items()})


def reduced(den: int, nums: dict) -> Row:
    """The exact row of ``nums`` over ``den``, divided by their gcd."""
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {b: n // g for b, n in nums.items()}
    return Row(den, nums)
