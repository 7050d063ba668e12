"""Exact arithmetic in the ring of integers O_d of Q(sqrt(-d)).

Elements are stored on the integral basis {1, tau_d} where

    tau_d = sqrt(-d)          if d = 1, 2 (mod 4)
    tau_d = (1 + sqrt(-d))/2  if d = 3 (mod 4)

so the parity condition on half-integer coordinates is unrepresentable by
construction.  All coordinates are Python ints (arbitrary precision).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache


def is_squarefree(d: int) -> bool:
    if d <= 0:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


@cache  # a rejected d raises, so only accepted values are remembered
def _check_d(d: int) -> None:
    if not is_squarefree(d):
        raise ValueError(f"d must be a positive square-free integer, got {d}")


def _half_discriminant_case(d: int) -> bool:
    """True when tau_d = (1 + sqrt(-d))/2, i.e. d = 3 (mod 4)."""
    return d % 4 == 3


@dataclass(frozen=True)
class QuadInt:
    """x + y*tau_d in O_d."""

    d: int
    x: int
    y: int

    def __post_init__(self) -> None:
        _check_d(self.d)

    @classmethod
    def integer(cls, d: int, n: int) -> "QuadInt":
        return cls(d, n, 0)

    @classmethod
    def tau(cls, d: int) -> "QuadInt":
        return cls(d, 0, 1)

    @classmethod
    def sqrt_minus_d(cls, d: int) -> "QuadInt":
        if _half_discriminant_case(d):
            # sqrt(-d) = 2*tau - 1
            return cls(d, -1, 2)
        return cls(d, 0, 1)

    @classmethod
    def from_half_pair(cls, d: int, b1: int, b2: int) -> "QuadInt":
        """The element (b1 + b2*sqrt(-d))/2; requires b1 = b2 (mod 2)."""
        if (b1 - b2) % 2 != 0:
            raise ValueError("half coordinates must have equal parity")
        if _half_discriminant_case(d):
            return cls(d, (b1 - b2) // 2, b2)
        if b1 % 2 != 0:
            raise ValueError(f"half-integer coordinates are not in O_{d}")
        return cls(d, b1 // 2, b2 // 2)

    # -- coordinate views ---------------------------------------------------

    def half_pair(self) -> tuple[int, int]:
        """(b1, b2) with self = (b1 + b2*sqrt(-d))/2 and b1 = b2 (mod 2)."""
        if _half_discriminant_case(self.d):
            return (2 * self.x + self.y, self.y)
        return (2 * self.x, 2 * self.y)

    def is_rational(self) -> bool:
        return self.y == 0

    def rational_value(self) -> int:
        if self.y != 0:
            raise ValueError(f"{self!r} is not rational")
        return self.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt.integer(self.d, other)
        if isinstance(other, QuadInt):
            if other.d != self.d:
                raise ValueError(f"mixed rings: d={self.d} vs d={other.d}")
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "QuadInt | int") -> "QuadInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.d, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other: "QuadInt | int") -> "QuadInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.d, self.x - o.x, self.y - o.y)

    def __rsub__(self, other: "QuadInt | int") -> "QuadInt":
        return (-self) + other

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.d, -self.x, -self.y)

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.d, self.x * other, self.y * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        cross = self.x * o.y + self.y * o.x
        yy = self.y * o.y
        if _half_discriminant_case(self.d):
            # tau^2 = tau - (1+d)/4
            return QuadInt(self.d, self.x * o.x - yy * ((1 + self.d) // 4), cross + yy)
        # tau^2 = -d
        return QuadInt(self.d, self.x * o.x - self.d * yy, cross)

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        """Image under sqrt(-d) -> -sqrt(-d)."""
        if _half_discriminant_case(self.d):
            # conj(tau) = 1 - tau
            return QuadInt(self.d, self.x + self.y, -self.y)
        return QuadInt(self.d, self.x, -self.y)

    def norm(self) -> int:
        """self * conj(self), a non-negative rational integer."""
        if _half_discriminant_case(self.d):
            return self.x * self.x + self.x * self.y + self.y * self.y * ((1 + self.d) // 4)
        return self.x * self.x + self.d * self.y * self.y

    def trace(self) -> int:
        """Field trace self + conj(self)."""
        if _half_discriminant_case(self.d):
            return 2 * self.x + self.y
        return 2 * self.x

    def reduce_mod(self, n: int) -> "QuadInt":
        """The representative of self mod (n) with both coordinates in [0, n)."""
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        return QuadInt(self.d, self.x % n, self.y % n)

    # -- text form ----------------------------------------------------------

    def render(self) -> str:
        """Canonical u + v*sqrt(-d) text form, halves rendered as odd/2."""
        b1, b2 = self.half_pair()

        def coeff(b: int) -> str:
            return str(b // 2) if b % 2 == 0 else f"{b}/2"

        if b2 == 0:
            return coeff(b1)
        sign = "+" if b2 > 0 else "-"
        return f"{coeff(b1)}{sign}{coeff(abs(b2))}*sqrt(-{self.d})"

    def __str__(self) -> str:
        return self.render()


_TERM_RE = re.compile(
    r"([+-]?)"
    r"(?:"
    r"(\d+(?:/2)?)\*(sqrt\(-(\d+)\)|tau|eta|omega)"
    r"|(sqrt\(-(\d+)\)|tau|eta|omega)"
    r"|(\d+(?:/2)?)"
    r")"
)


def _parse_coeff4(tok: str) -> int:
    """Four times the coefficient token n or n/2, an even integer."""
    if tok.endswith("/2"):
        return 2 * int(tok[:-2])
    return 4 * int(tok)


def parse_quadint(text: str, d: int) -> QuadInt:
    """Parse the canonical text form (and tau/eta/omega sugar) for O_d.

    Accepted terms: integers, odd/2 halves, and multiples of sqrt(-d),
    tau (the integral-basis generator), eta (alias for tau when d = 3 mod 4),
    and omega (d = 3 only, omega^2 + omega + 1 = 0).
    """
    _check_d(d)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element text")
    # 4u and 4v in the u + v*sqrt(-d) view: every term is a multiple of 1/4
    u4 = v4 = 0
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or (not first and m.group(1) == ""):
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        sign, coeff, sym, dd, bare_sym, bare_dd, number = m.groups()
        c4 = _parse_coeff4(number or coeff or "1")
        if sign == "-":
            c4 = -c4
        if number is not None:
            u4 += c4
        else:
            sym = sym or bare_sym
            if sym.startswith("sqrt"):
                dd = int(dd or bare_dd)
                if dd != d:
                    raise ValueError(f"sqrt(-{dd}) does not live in O_{d}")
                v4 += c4
            elif sym == "tau":
                if _half_discriminant_case(d):
                    u4 += c4 // 2  # c4 is even, so the halves are exact
                    v4 += c4 // 2
                else:
                    v4 += c4
            elif sym == "eta":
                if not _half_discriminant_case(d):
                    raise ValueError(f"eta = (1+sqrt(-d))/2 is not integral for d={d}")
                u4 += c4 // 2
                v4 += c4 // 2
            else:  # omega
                if d != 3:
                    raise ValueError("omega is only defined for d=3")
                u4 -= c4 // 2
                v4 += c4 // 2
        pos = m.end()
        first = False
    if u4 % 2 or v4 % 2:  # 2u or 2v is not an integer
        raise ValueError(f"{text!r} is not in O_{d}")
    return QuadInt.from_half_pair(d, u4 // 2, v4 // 2)
