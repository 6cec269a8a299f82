"""Exact univariate polynomials over the integers, the coefficient ring of the
Hecke algebra.

A polynomial is stored densely as a tuple of arbitrary-precision integer
coefficients in ascending powers of q, with no trailing zeros; the zero
polynomial is the empty tuple; any other coefficient (a float, a string) is
refused with TypeError when the polynomial is built.  The degree of the zero
polynomial is the ``MINUS_INFINITY`` sentinel, which compares below every
integer but is not a number itself.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["IntPoly", "MINUS_INFINITY", "ZERO", "ONE", "Q", "Q_MINUS_ONE"]


class _MinusInfinity:
    """Degree of the zero polynomial.  Sorts below every integer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _MinusInfinity)

    def __repr__(self):
        return "-inf"


MINUS_INFINITY = _MinusInfinity()


class IntPoly(tuple):
    """A polynomial in q with integer coefficients, ascending powers.

    Subclasses ``tuple``, so instances are immutable and hashable, but ``+``
    and ``*`` are polynomial operations rather than concatenation/repetition.

    >>> p = IntPoly((-1, 1))        # q - 1
    >>> p * IntPoly((1, 1))         # (q - 1)(q + 1)
    IntPoly([-1, 0, 1])
    >>> p(3), p(-1)
    (2, -2)
    >>> IntPoly((1, 0, 0)).degree   # canonical form strips trailing zeros
    0
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int] = ()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"IntPoly coefficient {c!r} is not an int")
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        return tuple.__new__(cls, coeffs[:end])

    @property
    def degree(self):
        """Degree, or MINUS_INFINITY for the zero polynomial."""
        return len(self) - 1 if self else MINUS_INFINITY

    def __add__(self, other):
        if isinstance(other, int):
            other = (other,)
        elif not isinstance(other, tuple):
            return NotImplemented
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self))

    def __sub__(self, other):
        if isinstance(other, int):
            other = (other,)
        elif not isinstance(other, tuple):
            return NotImplemented
        out = list(self) + [0] * max(0, len(other) - len(self))
        for k, c in enumerate(other):
            out[k] -= c
        return IntPoly(out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self))
        if not isinstance(other, tuple):
            return NotImplemented
        if not self or not other:
            return ZERO
        out = [0] * (len(self) + len(other) - 1)
        for i, c in enumerate(self):
            if c:
                for j, d in enumerate(other):
                    out[i + j] += c * d
        return IntPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int = 1) -> "IntPoly":
        """Multiply by q^k (k >= 0)."""
        if not self:
            return self
        return IntPoly((0,) * k + tuple(self))

    def __call__(self, n: int) -> int:
        """Evaluate at an integer, exactly (n may be negative)."""
        value = 0
        for c in reversed(self):
            value = value * n + c
        return value

    def __repr__(self):
        return f"IntPoly({list(self)})"

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for k in range(len(self) - 1, -1, -1):
            c = self[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
Q_MINUS_ONE = IntPoly((-1, 1))
