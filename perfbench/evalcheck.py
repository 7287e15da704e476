"""Independent recomposition check: ``g op h == f`` on the care set.

Nothing here imports the program.  Covers arrive as plain data (the
``[pos, neg, [[i, j, phase], ...]]`` pseudocube triples of the
``repro-result/1`` wire format), and functions are evaluated as packed
truth tables: one Python integer per function, bit ``k`` holding its
value on the ``k``-th point of an evaluation space.

The space is every minterm when the support is small enough
(:data:`FULL_SPACE_MAX_VARS`), otherwise a seeded sample of minterms.
Variable ``0`` is the most significant bit of a minterm index, as in the
program.
"""

from __future__ import annotations

import random

#: Supports up to this many inputs are checked on every minterm.
FULL_SPACE_MAX_VARS = 16

#: Minterms drawn per function above :data:`FULL_SPACE_MAX_VARS`.
SAMPLE_SIZE = 4096

#: ``op -> (g, h, ones) -> value``; the ten operators of paper Table I.
OPERATORS = {
    "AND": lambda g, h, ones: g & h,
    "NOT_IMPLIED_BY": lambda g, h, ones: ~g & h & ones,
    "NOT_IMPLIES": lambda g, h, ones: g & ~h & ones,
    "NOR": lambda g, h, ones: ~(g | h) & ones,
    "OR": lambda g, h, ones: g | h,
    "IMPLIES": lambda g, h, ones: (~g | h) & ones,
    "IMPLIED_BY": lambda g, h, ones: (g | ~h) & ones,
    "NAND": lambda g, h, ones: ~(g & h) & ones,
    "XOR": lambda g, h, ones: g ^ h,
    "XNOR": lambda g, h, ones: ~(g ^ h) & ones,
}


class Space:
    """Points at which functions are evaluated, with per-variable masks."""

    def __init__(self, n_vars: int, minterms: list[int] | None = None) -> None:
        self.n_vars = n_vars
        self.minterms = minterms
        if minterms is None:
            self.size = 1 << n_vars
            self.var = [self._full_var(i) for i in range(n_vars)]
        else:
            self.size = len(minterms)
            self.var = [0] * n_vars
            for k, minterm in enumerate(minterms):
                for i in range(n_vars):
                    if (minterm >> (n_vars - 1 - i)) & 1:
                        self.var[i] |= 1 << k
        self.ones = (1 << self.size) - 1

    @classmethod
    def for_support(cls, n_vars: int, rng: random.Random) -> "Space":
        """Every minterm when small enough, else a seeded sample."""
        if n_vars <= FULL_SPACE_MAX_VARS:
            return cls(n_vars)
        return cls(
            n_vars, [rng.getrandbits(n_vars) for _ in range(SAMPLE_SIZE)]
        )

    def _full_var(self, index: int) -> int:
        # Variable `index` is bit (n-1-index) of the minterm position:
        # blocks of 2^s zeros then 2^s ones, repeated by doubling.
        block = 1 << (self.n_vars - 1 - index)
        pattern = ((1 << block) - 1) << block
        width = 2 * block
        while width < self.size:
            pattern |= pattern << width
            width *= 2
        return pattern

    def product(self, pos: int, neg: int, xors=()) -> int:
        """Truth table of one pseudoproduct (a plain cube when no XORs)."""
        value = self.ones
        for i in range(self.n_vars):
            bit = 1 << i
            if pos & bit:
                value &= self.var[i]
            elif neg & bit:
                value &= ~self.var[i]
        for i, j, phase in xors:
            parity = self.var[i] ^ self.var[j]
            value &= parity if phase else ~parity
        return value & self.ones

    def cover(self, triples) -> int:
        """Truth table of a sum of pseudoproducts ``[pos, neg, xors]``."""
        value = 0
        for triple in triples:
            pos, neg = triple[0], triple[1]
            xors = triple[2] if len(triple) > 2 else ()
            value |= self.product(pos, neg, xors)
        return value

    def function(self, bit_function) -> int:
        """Tabulate ``bit_function(minterm) -> 0/1`` over the space."""
        points = (
            range(self.size) if self.minterms is None else self.minterms
        )
        value = 0
        for k, minterm in enumerate(points):
            if bit_function(minterm):
                value |= 1 << k
        return value


def cover_triples(payload) -> list:
    """Pseudocube triples of a ``repro-result/1`` cover payload."""
    if payload is None:
        raise ValueError("decomposition carries no cover")
    if payload["kind"] == "spp":
        return [list(pc) for pc in payload["pseudocubes"]]
    if payload["kind"] == "sop":
        return [[pos, neg, []] for pos, neg in payload["cubes"]]
    raise ValueError(f"unknown cover kind {payload['kind']!r}")


def recomposition_errors(
    space: Space, on: int, care: int, op: str, g_triples, h_triples
) -> int:
    """Care-set points where ``g op h`` differs from ``f`` (0 = correct)."""
    combine = OPERATORS.get(op)
    if combine is None:
        raise ValueError(f"unknown operator {op!r}")
    g = space.cover(g_triples)
    h = space.cover(h_triples)
    return ((combine(g, h, space.ones) ^ on) & care).bit_count()
