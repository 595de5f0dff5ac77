"""Arithmetic in GF(p) and GF(p^n), enough to build PSL2/PGL2 and friends.

Elements are polynomial coefficient vectors over GF(p), little-endian
(constant term first), reduced modulo a fixed monic irreducible of degree n.
The modulus is the least monic irreducible in integer-value order, i.e.
comparing coefficient tuples from the highest degree down; that makes
x^3 + x + 1 the modulus for GF(8) and x^2 + 1 the modulus for GF(9).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError, PreconditionError

MAX_Q = 4096


# ---------------------------------------------------------------------------
# integer helpers, shared by the whole package
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, n) with q = p^n and n >= 1, or None."""
    primes = prime_divisors(q)
    if len(primes) != 1:
        return None
    p = primes[0]
    n = 0
    while q > 1:
        q //= p
        n += 1
    return p, n


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    pp = 1
    while n % p == 0:
        n //= p
        pp *= p
    return pp


def euler_phi(n: int) -> int:
    result = n
    for p in prime_divisors(n):
        result -= result // p
    return result


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(p^n), hashable and immutable."""

    coeffs: tuple[int, ...]
    field: "Field"

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return FieldElement(tuple((a + b) % f.p for a, b in zip(self.coeffs, other.coeffs)), f)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return FieldElement(tuple((a - b) % f.p for a, b in zip(self.coeffs, other.coeffs)), f)

    def __neg__(self) -> "FieldElement":
        f = self.field
        return FieldElement(tuple((-a) % f.p for a in self.coeffs), f)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if f.n == 1:
            return FieldElement(((self.coeffs[0] * other.coeffs[0]) % f.p,), f)
        prod = [0] * (2 * f.n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % f.p
        return FieldElement(f._reduce(prod), f)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # q is tiny here; order-based inversion keeps the code short
        return self ** (self.field.q - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        f = self.field
        if k < 0:
            return self.inverse() ** (-k)
        result = f.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative order")
        k = 1
        acc = self
        while acc != self.field.one:
            acc = acc * self
            k += 1
        return k

    def frobenius(self) -> "FieldElement":
        return self ** self.field.p

    def __repr__(self) -> str:
        return f"GF({self.field.q}){list(self.coeffs)}"


@dataclass(frozen=True)
class Field:
    """GF(p^n) with a fixed modulus; elements listed in coefficient-lex order."""

    p: int
    n: int
    modulus: tuple[int, ...]  # little-endian incl. leading 1, length n+1

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def zero(self) -> FieldElement:
        return FieldElement((0,) * self.n, self)

    @property
    def one(self) -> FieldElement:
        return FieldElement((1,) + (0,) * (self.n - 1), self)

    def element(self, coeffs) -> FieldElement:
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        return FieldElement(c, self)

    def scalar(self, a: int) -> FieldElement:
        return FieldElement((a % self.p,) + (0,) * (self.n - 1), self)

    def elements(self) -> list[FieldElement]:
        """All q elements in lexicographic (little-endian) coefficient order."""
        out = []
        coeffs = [0] * self.n
        for _ in range(self.q):
            out.append(FieldElement(tuple(coeffs), self))
            for i in range(self.n - 1, -1, -1):
                coeffs[i] += 1
                if coeffs[i] < self.p:
                    break
                coeffs[i] = 0
        out.sort(key=lambda e: e.coeffs)
        return out

    def _reduce(self, poly: list[int]) -> tuple[int, ...]:
        """Reduce a little-endian coefficient list modulo the modulus."""
        p, n = self.p, self.n
        mod = self.modulus
        for i in range(len(poly) - 1, n - 1, -1):
            c = poly[i]
            if c:
                poly[i] = 0
                for j in range(n):
                    poly[i - n + j] = (poly[i - n + j] - c * mod[j]) % p
        return tuple(poly[:n])


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division of a monic little-endian polynomial by all lower-degree monics."""
    n = len(coeffs) - 1
    for d in range(1, n // 2 + 1):
        for num in range(p ** d):
            div = []
            t = num
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)  # monic divisor of degree d
            if _poly_divides(div, list(coeffs), p):
                return False
    return True


def _poly_divides(div: list[int], poly: list[int], p: int) -> bool:
    """Whether monic little-endian `div` divides `poly` over GF(p)."""
    poly = poly[:]
    d = len(div) - 1
    for i in range(len(poly) - 1, d - 1, -1):
        c = poly[i]
        if c:
            for j in range(d + 1):
                poly[i - d + j] = (poly[i - d + j] - c * div[j]) % p
    return all(c == 0 for c in poly)


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> Field:
    """GF(p^n) with the value-least monic irreducible modulus of degree n."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if n < 1:
        raise PreconditionError(f"field degree {n} is below 1")
    if p ** n > MAX_Q:
        raise CapExceededError(f"field size {p}^{n} exceeds the cap {MAX_Q}")
    if n == 1:
        return Field(p, 1, (0, 1))  # modulus x: the prime field itself
    # scan monic polynomials x^n + a_{n-1} x^{n-1} + ... + a_0 in integer
    # value order of (a_{n-1}, ..., a_0), i.e. value sum a_i p^i ascending
    for value in range(p ** n):
        low = []
        t = value
        for _ in range(n):
            low.append(t % p)
            t //= p
        cand = tuple(low) + (1,)
        if _poly_is_irreducible(cand, p):
            return Field(p, n, cand)
    raise AssertionError("no irreducible polynomial found (unreachable)")


def primitive_element(f: Field) -> FieldElement:
    """The first element of multiplicative order q-1 in coefficient-lex order."""
    target = f.q - 1
    for e in f.elements():
        if e.is_zero():
            continue
        if e.multiplicative_order() == target:
            return e
    raise AssertionError("no primitive element found (unreachable)")
