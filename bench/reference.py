"""Reference arithmetic that checks benchmark outputs.

Nothing here imports ``commensurate``.  Group products, inverses,
powers, display formats and the closed-form depths the engine must
attain are recomputed from their definitions, so a defect on the timed
path cannot pass by agreeing with itself.

Element encodings mirror the program's value types, which are tuples:
integers are ints; BS(1,2) elements are ``(shift, texp)`` with a
``Fraction`` shift; SL2 elements are ``(a, b, c, d)`` of ``Fraction``;
permutations are 0-based tuples.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")


# --- integers under addition ------------------------------------------------

def int_modulus(base, depth: int) -> int:
    """Generator of chain level ``depth``: base**depth, or depth! for "fact"."""
    if base == "fact":
        out = 1
        for k in range(2, depth + 1):
            out *= k
        return out
    return base ** depth


def int_valuation(base, diff: int):
    """Largest d with modulus(d) dividing diff (INF for diff == 0)."""
    if diff == 0:
        return INF
    d = 0
    if base == "fact":
        fact = 1
        while diff % (fact * (d + 1)) == 0:
            d += 1
            fact *= d
        return d
    while diff % base == 0:
        diff //= base
        d += 1
    return d


def kill_level(base, modulus: int):
    """Least d with modulus dividing modulus(d), or None when none exists."""
    if base != "fact":
        residual = modulus
        for p in range(2, modulus + 1):
            if residual % p == 0 and base % p != 0:
                return None
            while residual % p == 0:
                residual //= p
    d = 0
    while int_modulus(base, d) % modulus:
        d += 1
    return d


# --- BS(1,2) as dyadic affine maps ------------------------------------------

def bs_mul(x, y):
    return (x[0] + Fraction(2) ** x[1] * y[0], x[1] + y[1])


def bs_inv(x):
    return (-x[0] / Fraction(2) ** x[1], -x[1])


def bs_cost(x) -> int:
    return abs(x[1])


def bs_format(x) -> str:
    return f"({x[0]}; {x[1]})"


def two_adic(q: Fraction):
    """2-adic valuation of a nonzero dyadic rational."""
    num, den = q.numerator, q.denominator
    return (num & -num).bit_length() - 1 - (den.bit_length() - 1)


def bs_level(x):
    """Largest level whose subgroup contains x (-1: outside K, INF: identity)."""
    if x[1] != 0 or x[0].denominator != 1:
        return -1
    if x[0] == 0:
        return INF
    return two_adic(x[0])


# --- SL2 over Z[1/p] ----------------------------------------------------------

def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def p_adic(p: int, n: int):
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mat_cost(p: int, x) -> int:
    """Twice the largest p-exponent among the entry denominators."""
    return 2 * max(p_adic(p, q.denominator) for q in x)


def mat_level(p: int, x):
    """Largest congruence level containing x (-1: not integral)."""
    if any(q.denominator != 1 for q in x):
        return -1
    a, b, c, d = (int(q) for q in x)
    return min(p_adic(p, a - 1), p_adic(p, b), p_adic(p, c), p_adic(p, d - 1))


def mat_format(x) -> str:
    return f"[[{x[0]},{x[1]}],[{x[2]},{x[3]}]]"


# --- permutations -------------------------------------------------------------

def perm_mul(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_from_cycles(cycles, points: int):
    """Permutation of a list of 1-based cycles, rightmost applied first."""
    out = tuple(range(points))
    for cyc in cycles:
        step = list(range(points))
        for i, v in enumerate(cyc):
            step[v - 1] = cyc[(i + 1) % len(cyc)] - 1
        out = perm_mul(out, tuple(step))
    return out


def perm_format(p) -> str:
    seen, parts = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(str(i + 1))
            i = p[i]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) if parts else "()"


# --- generic helpers ----------------------------------------------------------

def power(mul, identity, inv, x, k: int):
    """x**k by square-and-multiply (the engine folds; the value is the same)."""
    if k < 0:
        x, k = inv(x), -k
    out = identity
    while k:
        if k & 1:
            out = mul(out, x)
        x = mul(x, x)
        k >>= 1
    return out


def product_depth(d1: int, d2: int, cost2: int):
    """Attained depth of f1 * f2, or None when precision is exhausted.

    The largest d <= d2 with d + cost(rep2) <= d1.
    """
    d = min(d2, d1 - cost2)
    return d if d >= 0 else None


def inverse_depth(d: int, cost: int):
    return d - cost if cost <= d else None


def valuation(level, cap: int):
    """(depth, indistinguishable) of two elements whose quotient sits at
    ``level`` (as returned by the *_level functions)."""
    if level >= cap:
        return cap, True
    return level, False
