"""Exact arithmetic in the ring of integers O_d of Q(sqrt(-d)).

Elements are stored on the integral basis {1, tau_d} where

    tau_d = sqrt(-d)          if d = 1, 2 (mod 4)
    tau_d = (1 + sqrt(-d))/2  if d = 3 (mod 4)

so the parity condition on half-integer coordinates is unrepresentable by
construction.  All coordinates are Python ints (arbitrary precision).

`_tau_square(d)`, cached per d, is the one statement of these conventions:
it rejects a d that is not positive and square-free, and otherwise gives
(s, n) with tau^2 = s*tau - n, where s = 1 exactly when tau = (1 + sqrt(-d))/2.
Validation of d, products, norms, the half-pair view (2x + s*y, (2 - s)*y),
its inverse, `render` and both readers of text read it: `from_rendered`, of
the groups of render's form, and `parse_quadint`, term by term.
Its square-free test accepts a prime d at once through `is_prime`, which is
also the odd-prime test of `circles.check_odd_prime`.

The public constructors (`QuadInt(d, x, y)` and the classmethods) validate d.
Arithmetic results inherit d from an operand that was already validated, so
`+`, `-`, `*` and `from_xy` build them with `_unchecked`, which only this
module may call.  An operand of `+`, `-` or `*` must be an int or a QuadInt
of the same ring.
"""

from __future__ import annotations

import re
from functools import cache
from math import isqrt


# psi_13 of Sorenson and Webster (2015): the least strong pseudoprime to all of
# the first 13 prime bases, so Miller-Rabin over them is proven below it
PRIME_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases, proven for
    n < PRIME_LIMIT (about 3.3e24).  A larger n raises ValueError: no answer
    for it would be proven."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is too large: primality is proven only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * e with e odd
    e = (n - 1) >> r
    for a in _PRIME_BASES:
        x = pow(a, e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(d: int) -> bool:
    if d <= 0:
        return False
    if d < PRIME_LIMIT and is_prime(d):  # a prime needs no scan
        return True
    p = 2
    while p * p * p <= d:  # d has no prime factor below p
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    # d's prime factors are all >= p > cbrt(d), so d is 1, a prime, a product
    # of two distinct primes, or the square of a prime
    return d == 1 or isqrt(d) ** 2 != d


@cache  # a rejected d raises, so only accepted values are remembered
def _tau_square(d: int) -> tuple[int, int]:
    """(s, n) with tau_d^2 = s*tau_d - n; s = 1 exactly when d = 3 (mod 4)."""
    if not is_squarefree(d):
        raise ValueError(f"d must be a positive square-free integer, got {d}")
    return (1, (1 + d) // 4) if d % 4 == 3 else (0, d)


class Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    __slots__, sets them in __init__ through the slot descriptors and returns
    them in that order from `_values`.  An instance equals only an instance of
    its own type with equal fields, hashes as the tuple of its fields, shows
    them by name in its repr and has no order."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class QuadInt(Frozen):
    """x + y*tau_d in O_d."""

    __slots__ = ("d", "x", "y")

    def __init__(self, d: int, x: int, y: int) -> None:
        _set_d(self, d)
        _set_x(self, x)
        _set_y(self, y)
        self.__post_init__()

    def __post_init__(self) -> None:
        _tau_square(self.d)

    def _values(self) -> tuple[int, int, int]:
        return (self.d, self.x, self.y)

    @classmethod
    def integer(cls, d: int, n: int) -> "QuadInt":
        return cls(d, n, 0)

    @classmethod
    def tau(cls, d: int) -> "QuadInt":
        return cls(d, 0, 1)

    @classmethod
    def from_half_pair(cls, d: int, b1: int, b2: int) -> "QuadInt":
        """The element (b1 + b2*sqrt(-d))/2; requires b1 = b2 (mod 2).
        The inverse of `half_pair`."""
        s, _ = _tau_square(d)
        if (b1 - b2) % 2 != 0:
            raise ValueError("half coordinates must have equal parity")
        y, r = divmod(b2, 2 - s)
        if r:
            raise ValueError(f"half-integer coordinates are not in O_{d}")
        return _unchecked(d, (b1 - s * y) // 2, y)  # _tau_square has validated d

    # -- coordinate views ---------------------------------------------------

    def half_pair(self) -> tuple[int, int]:
        """(b1, b2) with self = (b1 + b2*sqrt(-d))/2 and b1 = b2 (mod 2)."""
        s, _ = _tau_square(self.d)
        return (2 * self.x + s * self.y, (2 - s) * self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    # -- ring structure -----------------------------------------------------

    def _coords(self, other: "QuadInt | int") -> tuple[int, int]:
        """other's coordinates in self's ring."""
        if type(other) is QuadInt:
            if other.d != self.d:
                raise ValueError(f"mixed rings: d={self.d} vs d={other.d}")
            return other.x, other.y
        if isinstance(other, int):
            return other, 0
        raise TypeError(f"QuadInt operand must be an int or a QuadInt, "
                        f"got {type(other).__name__}")

    def __add__(self, other: "QuadInt | int") -> "QuadInt":
        ox, oy = self._coords(other)
        return _unchecked(self.d, self.x + ox, self.y + oy)

    __radd__ = __add__

    def __sub__(self, other: "QuadInt | int") -> "QuadInt":
        ox, oy = self._coords(other)
        return _unchecked(self.d, self.x - ox, self.y - oy)

    def __neg__(self) -> "QuadInt":
        return _unchecked(self.d, -self.x, -self.y)

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        if type(other) is int:  # a multiple: no product of two elements
            return _unchecked(self.d, self.x * other, self.y * other)
        ox, oy = self._coords(other)
        return _unchecked(self.d, *mul_add(*_tau_square(self.d), self.x, self.y, ox, oy, 0, 0, 0, 0))

    __rmul__ = __mul__

    def norm(self) -> int:
        """self * conj(self), a non-negative rational integer."""
        s, n = _tau_square(self.d)
        return self.x * self.x + s * self.x * self.y + n * self.y * self.y

    # -- text form ----------------------------------------------------------

    def render(self) -> str:
        """Canonical u + v*sqrt(-d) text form, halves rendered as odd/2."""
        x, y = self.x, self.y
        if y == 0:
            return str(x)
        s, _ = _tau_square(self.d)
        if not s:  # x + y*sqrt(-d)
            u, v = str(x), str(abs(y))
        elif y % 2 == 0:  # x + y*tau = (x + y/2) + (y/2)*sqrt(-d)
            u, v = str(x + y // 2), str(abs(y) // 2)
        else:
            u, v = f"{2 * x + y}/2", f"{abs(y)}/2"
        return f"{u}{'+' if y > 0 else '-'}{v}*sqrt(-{self.d})"

    __str__ = render


_new = object.__new__
_set_d, _set_x, _set_y = QuadInt.d.__set__, QuadInt.x.__set__, QuadInt.y.__set__


def _unchecked(d: int, x: int, y: int) -> QuadInt:
    """QuadInt(d, x, y) without validating d, for results whose d an operand
    already carries.  Callers outside this module would bypass validation."""
    q = _new(QuadInt)
    _set_d(q, d)
    _set_x(q, x)
    _set_y(q, y)
    return q


def mul_add(s: int, n: int, px: int, py: int, qx: int, qy: int,
            rx: int, ry: int, tx: int, ty: int) -> tuple[int, int]:
    """The coordinates of p*q + r*t in O_d, where tau^2 = s*tau - n: the one
    product formula, of `QuadInt *` and of every matrix product and determinant."""
    yy = py * qy + ry * ty
    return px * qx + rx * tx - n * yy, px * qy + py * qx + rx * ty + ry * tx + s * yy


def tau_square_of(*elements: QuadInt) -> tuple[int, int]:
    """`_tau_square(d)` for the one d of all elements; two rings raise ValueError."""
    d = elements[0].d
    for e in elements:
        if e.d != d:
            raise ValueError(f"mixed rings: d={d} vs d={e.d}")
    return _tau_square(d)


def from_xy(like: QuadInt, xy: tuple[int, ...]) -> tuple[QuadInt, ...]:
    """The elements with coordinates xy = (x1, y1, ...) in the validated ring of like."""
    return tuple([_unchecked(like.d, x, y) for x, y in zip(xy[::2], xy[1::2])])


# the form `render` writes: u, or u+v*sqrt(-d) or u-v*sqrt(-d), with u and v both
# integers or both odd/2; the groups are u, u's /2, v with its sign and v's /2.
# `pipeline` reads each ring element of a record in render's form with it, where
# (?P=d) is the text of the record's d, a group named d.
RENDERED = r"(-?\d+)(/2)?(?:([+-]\d+)(/2)?\*sqrt\(-(?P=d)\))?"

# a number with an optional *symbol, or a bare symbol: a plain integer needs no backtracking
_TERM_RE = re.compile(
    r"([+-]?)"
    r"(?:"
    r"(\d+(?:/2)?)(?:\*(sqrt\(-(\d+)\)|tau|eta|omega))?"
    r"|(sqrt\(-(\d+)\)|tau|eta|omega)"
    r")"
)


def from_rendered(d: int, u: str, u_half: str | None, v: str | None,
                  v_half: str | None) -> QuadInt | None:
    """The element of O_d that the groups of a RENDERED match denote, or None
    where render would not have written the text (halves where render writes
    none).  d must pass `_tau_square`; an integer past int()'s digit limit
    raises ValueError."""
    if v is None:
        return None if u_half else _unchecked(d, int(u), 0)
    if u_half != v_half:
        return None
    s, _ = _tau_square(d)
    a, b = int(u), int(v)
    if not u_half:  # a + b*sqrt(-d), where sqrt(-d) is tau if s = 0 and 2*tau - 1 if s = 1
        return _unchecked(d, a - s * b, b << s)
    # render writes halves only when s = 1, and then (a + b*sqrt(-d))/2 = (a - b)/2 + b*tau
    return _unchecked(d, (a - b) // 2, b) if s and (a - b) % 2 == 0 else None


def _parse_coeff4(tok: str) -> int:
    """Four times the coefficient token n or n/2, an even integer."""
    if tok.endswith("/2"):
        return 2 * int(tok[:-2])
    return 4 * int(tok)


def parse_quadint(text: str, d: int) -> QuadInt:
    """Parse the text form of an element of O_d term by term.

    Accepted terms: integers, odd/2 halves, and multiples of sqrt(-d),
    tau (the integral-basis generator, the half pair (s, 2 - s)), eta (alias
    for tau when s = 1), and omega (d = 3 only, omega^2 + omega + 1 = 0),
    with spaces anywhere.  Rejected text raises ValueError naming its fault.
    """
    s, _ = _tau_square(d)
    body = text.replace(" ", "")
    if not body:
        raise ValueError("empty element text")
    # 4u and 4v in the u + v*sqrt(-d) view: every term is a multiple of 1/4
    u4 = v4 = 0
    pos = 0
    first = True
    while pos < len(body):
        m = _TERM_RE.match(body, pos)
        if m is None or (not first and m.group(1) == ""):
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        sign, coeff, sym, dd, bare_sym, bare_dd = m.groups()
        c4 = _parse_coeff4(coeff or "1")
        if sign == "-":
            c4 = -c4
        sym = sym or bare_sym
        if sym is None:
            u4 += c4
        elif sym.startswith("sqrt"):
            dd = int(dd or bare_dd)
            if dd != d:
                raise ValueError(f"sqrt(-{dd}) does not live in O_{d}")
            v4 += c4
        elif sym == "omega":
            if d != 3:
                raise ValueError("omega is only defined for d=3")
            u4 -= c4 // 2
            v4 += c4 // 2
        else:  # tau = (s + (2 - s)*sqrt(-d))/2, or its alias eta when s = 1
            if sym == "eta" and not s:
                raise ValueError(f"eta = (1+sqrt(-d))/2 is not integral for d={d}")
            u4 += s * c4 // 2  # c4 is even, so the halves are exact
            v4 += (2 - s) * c4 // 2
        pos = m.end()
        first = False
    if u4 % 2 or v4 % 2:  # 2u or 2v is not an integer
        raise ValueError(f"{text!r} is not in O_{d}")
    return QuadInt.from_half_pair(d, u4 // 2, v4 // 2)
