"""Seeded request stream for the ``served-mix`` workload.

The stream is a list of positions, each naming a function item.  Half
half the positions introduce a fresh synthetic single-output function;
the rest repeat an earlier item — usually a random one (a cache hit),
sometimes the most recent fresh one, which is often still being computed
when the repeat is sent (a coalesced follower).

Functions follow the clustered control-logic row model of the program's
synthetic benchmarks (a base product plus perturbed siblings), over 8 to
16 inputs, with a don't-care set on some of them.  The program only ever
sees the resulting truth tables.

The seed draws the order of the stream: which arity comes when, which
earlier item each repeat targets and which of a pair goes first.  The
fresh functions themselves are fixed variants of a fixed template pool,
so every stream of whole template rounds computes the same functions
and a run's total work does not depend on its seed.  (With per-seed
variants, one round's median compute time moved 27-34 ms between
seeds, on top of the host's own drift.)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

MIN_VARS = 8
MAX_VARS = 16
#: One repeat in this many targets the latest fresh item (likely in flight).
INFLIGHT_EVERY = 10
TEMPLATES_PER_ARITY = 6
#: Fresh items that use every template exactly once.
TEMPLATE_ROUND = TEMPLATES_PER_ARITY * (MAX_VARS - MIN_VARS + 1)


@dataclass(frozen=True)
class FunctionItem:
    """One generated single-output function as cube lists."""

    n_vars: int
    on_cubes: tuple[tuple[int, int], ...]
    dc_cubes: tuple[tuple[int, int], ...]


def _cube(rng: random.Random, n_vars: int, density: float) -> tuple[int, int]:
    count = max(2, min(n_vars, round(density * n_vars) + rng.randint(-1, 1)))
    pos = neg = 0
    for var in rng.sample(range(n_vars), count):
        if rng.random() < 0.5:
            pos |= 1 << var
        else:
            neg |= 1 << var
    return pos, neg


def _sibling(rng: random.Random, n_vars: int, base: tuple[int, int]) -> tuple[int, int]:
    pos, neg = base
    for _ in range(rng.randint(1, 2)):
        bound = [v for v in range(n_vars) if (pos | neg) >> v & 1]
        free = [v for v in range(n_vars) if not (pos | neg) >> v & 1]
        move = rng.random()
        if move < 0.5 and bound:
            bit = 1 << rng.choice(bound)
            pos, neg = (pos & ~bit, neg | bit) if pos & bit else (pos | bit, neg & ~bit)
        elif move < 0.8 and len(bound) > 2:
            bit = 1 << rng.choice(bound)
            pos, neg = pos & ~bit, neg & ~bit
        elif free:
            bit = 1 << rng.choice(free)
            pos, neg = (pos | bit, neg) if rng.random() < 0.5 else (pos, neg | bit)
    return pos, neg


def make_function(rng: random.Random, n_vars: int) -> FunctionItem:
    """One clustered function: 5 clusters of 5 sibling products."""
    density = rng.uniform(0.5, 0.6)
    on = []
    for _ in range(5):
        base = _cube(rng, n_vars, density)
        on.append(base)
        on.extend(_sibling(rng, n_vars, base) for _ in range(4))
    dc = []
    if rng.random() < 0.5:
        dc = [_cube(rng, n_vars, density + 0.1) for _ in range(rng.randint(1, 2))]
    return FunctionItem(n_vars, tuple(on), tuple(dc))


def templates() -> dict[int, list[FunctionItem]]:
    """The fixed template pool: :data:`TEMPLATES_PER_ARITY` per arity."""
    rng = random.Random("perfbench-served-mix-templates")
    return {
        n_vars: [make_function(rng, n_vars) for _ in range(TEMPLATES_PER_ARITY)]
        for n_vars in range(MIN_VARS, MAX_VARS + 1)
    }


def variant(template: FunctionItem, rng: random.Random) -> FunctionItem:
    """``template`` under a random input permutation and input polarities."""
    n_vars = template.n_vars
    perm = list(range(n_vars))
    rng.shuffle(perm)
    flips = rng.getrandbits(n_vars)

    def move(cube: tuple[int, int]) -> tuple[int, int]:
        pos = neg = 0
        for var in range(n_vars):
            positive = bool(cube[0] >> var & 1)
            if not (positive or cube[1] >> var & 1):
                continue
            if flips >> var & 1:
                positive = not positive
            if positive:
                pos |= 1 << perm[var]
            else:
                neg |= 1 << perm[var]
        return pos, neg

    return FunctionItem(
        n_vars,
        tuple(move(c) for c in template.on_cubes),
        tuple(move(c) for c in template.dc_cubes),
    )


def fresh_variant(pool: dict[int, list[FunctionItem]], n_vars: int, use: int) -> FunctionItem:
    """The ``use``-th fresh function of arity ``n_vars``: the same for
    every seed."""
    template = pool[n_vars][use % TEMPLATES_PER_ARITY]
    return variant(template, random.Random(f"perfbench-served-mix-variant:{n_vars}:{use}"))


def whole_rounds(length: int) -> int:
    """``length`` rounded to whole template rounds (at least one): every
    template used equally often, by the same variants under every seed."""
    per_round = 2 * TEMPLATE_ROUND
    return per_round * max(1, round(length / per_round))


def make_stream(seed: int, length: int) -> tuple[list[FunctionItem], list[int]]:
    """``(items, order)``: order[k] is the item sent at position ``k``.

    Positions come in pairs of one fresh item and one repeat, in seeded
    order within the pair, so every stream of a given length has the
    same number of distinct functions; every tenth repeat targets the
    latest fresh item.  Fresh items walk the template pool in a fixed
    rotation, the ``k``-th use of a template being its fixed ``k``-th
    variant (:func:`fresh_variant`); the seed orders the arities within
    each round.  A stream of :func:`whole_rounds` length therefore sends
    the same set of functions under every seed.
    """
    rng = random.Random(f"perfbench-served-mix:{seed}")
    pool = templates()
    uses = dict.fromkeys(pool, 0)
    items: list[FunctionItem] = []
    order: list[int] = []
    arities: list[int] = []
    for pair in range((length + 1) // 2):
        if not arities:
            # Each arity once per round, so every stretch of the stream
            # has the same mix of function sizes.
            arities = list(pool)
            rng.shuffle(arities)
        n_vars = arities.pop()
        items.append(fresh_variant(pool, n_vars, uses[n_vars]))
        uses[n_vars] += 1
        fresh = len(items) - 1
        if pair % INFLIGHT_EVERY == INFLIGHT_EVERY // 2 or fresh == 0:
            repeat = fresh
        else:
            repeat = rng.randrange(fresh)
        order.extend((fresh, repeat) if rng.random() < 0.5 or repeat == fresh else (repeat, fresh))
    return items, order[:length]


def stream_digest(requests: list[dict]) -> str:
    """SHA-256 over the canonical JSON of the exact request params sent."""
    digest = hashlib.sha256()
    for params in requests:
        digest.update(json.dumps(params, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()
