"""Exact arithmetic in real quadratic fields Q(sqrt d).

A ``QScalar`` is a + b*sqrt(d) with rational a, b and square-free d > 0.
The ring operations, the zero test, and order comparisons are exact; this is
what makes frequency-coincidence and resonance detection sound.  Generators
that are not of this form are handled as plain floats elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from numbers import Rational

__all__ = ["QScalar", "is_square_free", "as_exact"]


def is_square_free(d: int) -> bool:
    if d < 1:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    raise TypeError(f"rational value expected, got {type(x).__name__}")


class QScalar:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 2):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if b == 0:
            d = 1
        else:
            d = int(d)
            if d == 1 or not is_square_free(d):
                raise ValueError(f"d must be a square-free integer > 1, got {d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def sqrt(cls, d: int) -> "QScalar":
        return cls(0, 1, d)

    @classmethod
    def rational(cls, a) -> "QScalar":
        return cls(a, 0)

    def _coerce(self, other) -> "QScalar | None":
        if isinstance(other, QScalar):
            if self.d != 1 and other.d != 1 and self.d != other.d:
                raise ValueError(
                    f"mixed quadratic fields Q(sqrt {self.d}) and Q(sqrt {other.d})"
                )
            return other
        if isinstance(other, (int, Rational)):
            return QScalar(_as_fraction(other), 0)
        return None

    def _field(self, other: "QScalar") -> int:
        return self.d if self.d != 1 else other.d

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QScalar(self.a + o.a, self.b + o.b, self._field(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QScalar(self.a - o.a, self.b - o.b, self._field(o))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QScalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._field(o)
        return QScalar(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QScalar":
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("QScalar is zero")
        return QScalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QScalar(1, 0)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order and equality (exact) -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with d b^2; sign follows the larger term
        lhs, rhs = a * a, self.d * b * b
        if lhs == rhs:
            return 0  # impossible for square-free d>1, kept for safety
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero

    # -- conversion ------------------------------------------------------------

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        # rational sqrt approximation with enough guard bits that the final
        # Fraction->float rounding dominates even under heavy cancellation
        k = (
            abs(self.b.numerator).bit_length()
            + self.b.denominator.bit_length()
            + 96
        )
        root = Fraction(isqrt(self.d << (2 * k)), 1 << k)
        return float(self.a + self.b * root)

    def __complex__(self) -> complex:
        return complex(float(self))

    def __repr__(self):
        if self.b == 0:
            return f"QScalar({self.a})"
        return f"QScalar({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"

    # -- JSON ----------------------------------------------------------------

    def to_dict(self) -> dict:
        def enc(x: Fraction):
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return {"a": enc(self.a), "b": enc(self.b), "d": self.d if self.b else 2}

    @classmethod
    def from_dict(cls, obj: dict) -> "QScalar":
        def dec(x):
            return Fraction(x) if isinstance(x, str) else Fraction(int(x))

        return cls(dec(obj["a"]), dec(obj.get("b", 0)), int(obj.get("d", 2)))


def as_exact(x) -> QScalar:
    """Coerce an int, Fraction, or QScalar to QScalar; floats are rejected."""
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Rational)):
        return QScalar(_as_fraction(x), 0)
    raise TypeError(f"cannot represent {type(x).__name__} exactly")
