"""Independent reference code for the benchmark's output checks.

Nothing here calls the package under test: tables are plain ``(add, mul)``
pairs of nested sequences with 0 at index 0 and 1 at index n-1.  The checks
are brute force, which is affordable at the sizes the workloads use.
"""

from __future__ import annotations

import itertools
import math


def psr_text(names, add, mul) -> str:
    """Serialise a table in the package's ``psr 1`` text format."""
    lines = ["psr 1", f"order {len(add)}", "names " + " ".join(names), "add"]
    lines += [" ".join(str(v) for v in row) for row in add]
    lines.append("mul")
    lines += [" ".join(str(v) for v in row) for row in mul]
    return "\n".join(lines) + "\n"


def decode(code: str):
    """Parse ``"<add rows> / <mul rows>"`` with one digit per cell."""
    add_part, mul_part = code.split("/")
    add = [[int(c) for c in row] for row in add_part.split()]
    mul = [[int(c) for c in row] for row in mul_part.split()]
    return add, mul


def random_perm(n: int, rng) -> list[int]:
    """A uniformly random permutation of 0..n-1 that fixes 0 and n-1."""
    middle = list(range(1, n - 1))
    rng.shuffle(middle)
    return [0] + middle + [n - 1]


def relabel(add, mul, perm):
    """The tables carried across ``perm``: new[perm[x]][perm[y]] = perm[old[x][y]]."""
    n = len(add)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return ([[perm[add[inv[x]][inv[y]]] for y in range(n)] for x in range(n)],
            [[perm[mul[inv[x]][inv[y]]] for y in range(n)] for x in range(n)])


def product(a, b):
    """Direct product of two tables, pair (x, y) at index x * |b| + y."""
    (add_a, mul_a), (add_b, mul_b) = a, b
    na, nb = len(add_a), len(add_b)
    cells = [(x, y) for x in range(na) for y in range(nb)]

    def op(ta, tb):
        return [[ta[x1][x2] * nb + tb[y1][y2] for (x2, y2) in cells]
                for (x1, y1) in cells]

    return op(add_a, add_b), op(mul_a, mul_b)


def chain(k: int):
    """The chain 0 < c1 < ... < ck < 1 with max as sum and min as product."""
    n = k + 2
    return ([[max(x, y) for y in range(n)] for x in range(n)],
            [[min(x, y) for y in range(n)] for x in range(n)])


def transports(perm, a, b) -> bool:
    """True when ``perm`` fixes 0 and 1, is a bijection and carries a onto b."""
    (add_a, mul_a), (add_b, mul_b) = a, b
    n = len(add_a)
    if len(add_b) != n or len(perm) != n or sorted(perm) != list(range(n)):
        return False
    if perm[0] != 0 or perm[n - 1] != n - 1:
        return False
    return all(perm[add_a[x][y]] == add_b[perm[x]][perm[y]]
               and perm[mul_a[x][y]] == mul_b[perm[x]][perm[y]]
               for x in range(n) for y in range(n))


def is_posemiring(add, mul) -> bool:
    """The defining identities, each checked on every tuple."""
    n = len(add)
    one = n - 1
    r = range(n)
    return (all(add[0][x] == x and add[one][x] == one and add[x][x] == x
                and mul[one][x] == x and mul[0][x] == 0 for x in r)
            and all(add[x][y] == add[y][x] and mul[x][y] == mul[y][x]
                    for x in r for y in r)
            and all(add[add[x][y]][z] == add[x][add[y][z]]
                    and mul[mul[x][y]][z] == mul[x][mul[y][z]]
                    and mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                    for x in r for y in r for z in r))


def _perms(n: int):
    for middle in itertools.permutations(range(1, n - 1)):
        yield (0,) + middle + (n - 1,)


def automorphisms(add, mul) -> int:
    """|Aut| by trying every permutation that fixes 0 and 1."""
    return sum(transports(p, (add, mul), (add, mul)) for p in _perms(len(add)))


def isomorphic(a, b) -> bool:
    """Brute-force isomorphism test; only for small orders."""
    return any(transports(p, a, b) for p in _perms(len(a[0])))


def minimal_form(add, mul) -> tuple:
    """The least relabelled serialisation; equal iff the tables are isomorphic."""
    forms = []
    for p in _perms(len(add)):
        new_add, new_mul = relabel(add, mul, p)
        forms.append(tuple(v for row in new_add + new_mul for v in row))
    return min(forms)


def labelled_count(tables) -> int:
    """Labelled tables on 0..n-1 represented by one table per class."""
    return sum(math.factorial(len(add) - 2) // automorphisms(add, mul)
               for add, mul in tables)


def ring_order(spec: str) -> int:
    """Order of a ``zn:N``, ``zpx:p:c1:c0`` or ``prod(a,b)`` ring spec."""
    if spec.startswith("prod(") and spec.endswith(")"):
        inner = spec[5:-1]
        depth = 0
        for i, ch in enumerate(inner):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                return ring_order(inner[:i]) * ring_order(inner[i + 1:])
        raise ValueError(f"bad ring spec {spec!r}")
    if spec.startswith("zn:"):
        return int(spec[3:])
    if spec.startswith("zpx:"):
        return int(spec.split(":")[1]) ** 2
    raise ValueError(f"bad ring spec {spec!r}")


def _rank(p: float, n: int) -> int:
    # integer arithmetic in tenths of a percent, so p99.5 of 2000 is rank 1990
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    return best
