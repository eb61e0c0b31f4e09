"""Synthetic binary generation.

Given a :class:`BinaryShape` (function count, block fan-out, category and
memory mixes) and a seed, :func:`generate_binary` produces a
:class:`~repro.program.binary.Binary` whose *execution-weighted* behaviour
matches the requested mixes: the CFG walk visits functions proportionally
to their category weight, so analyses over decoded traces recover the mix.

Generation is fully deterministic in (name, shape, seed).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.program.binary import (
    ACCESS_WIDTHS,
    BASE_ADDRESS,
    BasicBlock,
    Binary,
    Function,
    FunctionCategory,
    MemoryProfile,
)
from repro.util.rng import derive_seed


@dataclass
class BinaryShape:
    """Knobs controlling the generated program's static structure.

    ``category_weights`` gives each function category its share of
    *execution time* (the CFG transition matrix is biased accordingly);
    categories absent from the map get no functions.  ``width_mixes``
    optionally overrides the access-width distributions per access class
    (defaults follow traditional CPU workloads: mostly 4/8-byte).
    """

    n_functions: int = 40
    blocks_per_function_mean: float = 8.0
    instructions_per_block_mean: float = 12.0
    indirect_branch_fraction: float = 0.15
    call_fraction: float = 0.20
    category_weights: Dict[FunctionCategory, float] = field(
        default_factory=lambda: {FunctionCategory.APP: 1.0}
    )
    width_mixes: Optional[Dict[str, Dict[int, float]]] = None
    accesses_per_instruction: float = 0.35

    def cache_key(self) -> Tuple:
        """Hashable identity of the shape (dict fields canonicalized).

        Two shapes with equal cache keys generate identical binaries for
        the same (name, seed) — the memoization key of
        :func:`generate_binary_cached`.
        """
        widths = None
        if self.width_mixes is not None:
            widths = tuple(
                sorted(
                    (klass, tuple(sorted(mix.items())))
                    for klass, mix in self.width_mixes.items()
                )
            )
        return (
            self.n_functions,
            self.blocks_per_function_mean,
            self.instructions_per_block_mean,
            self.indirect_branch_fraction,
            self.call_fraction,
            tuple(sorted((c.value, w) for c, w in self.category_weights.items())),
            widths,
            self.accesses_per_instruction,
        )


_DEFAULT_WIDTH_MIXES: Dict[str, Dict[int, float]] = {
    "read_only": {1: 0.10, 2: 0.10, 4: 0.45, 8: 0.35},
    "write_only": {1: 0.08, 2: 0.07, 4: 0.45, 8: 0.40},
    "read_write": {1: 0.05, 2: 0.10, 4: 0.45, 8: 0.40},
}


def _normalized(mix: Dict[int, float]) -> Dict[int, float]:
    total = sum(mix.values())
    if total <= 0:
        raise ValueError(f"width mix has no mass: {mix}")
    return {w: v / total for w, v in mix.items() if w in ACCESS_WIDTHS}


def generate_binary(name: str, shape: BinaryShape, seed: int = 0) -> Binary:
    """Generate a deterministic synthetic binary.

    Functions are laid out contiguously from ``BASE_ADDRESS``; block sizes and
    instruction counts are sampled around the shape's means; each block's
    successors prefer intra-function targets, with call edges biased by
    ``category_weights`` so hot categories are visited proportionally.
    """
    rng = np.random.default_rng(derive_seed(seed, "binary", name))
    categories = list(shape.category_weights)
    weights = np.array([shape.category_weights[c] for c in categories], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("category weights must be non-negative with positive sum")
    weights = weights / weights.sum()

    width_mixes = dict(_DEFAULT_WIDTH_MIXES)
    if shape.width_mixes:
        width_mixes.update(shape.width_mixes)
    width_mixes = {k: _normalized(v) for k, v in width_mixes.items()}

    # assign categories to functions: at least one function per category
    # with positive weight, remainder sampled by weight
    n_functions = max(shape.n_functions, len(categories))
    function_categories: List[FunctionCategory] = list(categories)
    extra = n_functions - len(categories)
    if extra > 0:
        picks = rng.choice(len(categories), size=extra, p=weights)
        function_categories.extend(categories[i] for i in picks)
    rng.shuffle(function_categories)  # type: ignore[arg-type]

    functions: List[Function] = []
    blocks: List[BasicBlock] = []
    address = BASE_ADDRESS
    function_entry_blocks: List[int] = []

    for function_id, category in enumerate(function_categories):
        n_blocks = max(3, int(rng.poisson(shape.blocks_per_function_mean)))
        block_ids = []
        for position in range(n_blocks):
            n_instr = max(3, int(rng.poisson(shape.instructions_per_block_mean)))
            size = n_instr * int(rng.integers(3, 6))
            if position == n_blocks - 1:
                terminator = "ret"  # every function ends in a return
            else:
                draw = rng.random()
                if draw < shape.indirect_branch_fraction:
                    terminator = "indirect"
                elif draw < shape.indirect_branch_fraction + shape.call_fraction:
                    terminator = "call"
                else:
                    terminator = "cond"
            block = BasicBlock(
                block_id=len(blocks),
                function_id=function_id,
                address=address,
                size_bytes=size,
                n_instructions=n_instr,
                terminator=terminator,
            )
            blocks.append(block)
            block_ids.append(block.block_id)
            address += size
        memory = MemoryProfile(
            read_only=width_mixes["read_only"],
            write_only=width_mixes["write_only"],
            read_write=width_mixes["read_write"],
            accesses_per_instruction=shape.accesses_per_instruction,
        )
        memory.validate()
        functions.append(
            Function(
                function_id=function_id,
                name=f"{name}::{category.value.lower()}_{function_id}",
                category=category,
                entry_block=block_ids[0],
                block_ids=tuple(block_ids),
                memory=memory,
            )
        )
        function_entry_blocks.append(block_ids[0])
        address += int(rng.integers(16, 64))  # inter-function padding

    # execution weight: each category's share splits evenly across its
    # functions, so the *aggregate* execution time per category matches
    # the requested weights regardless of how many functions it got
    category_weight = dict(zip(categories, weights))
    category_counts: Dict[FunctionCategory, int] = {}
    for function in functions:
        category_counts[function.category] = (
            category_counts.get(function.category, 0) + 1
        )
    function_weights = np.array(
        [
            category_weight[f.category] / category_counts[f.category]
            for f in functions
        ],
        dtype=float,
    )
    function_weights /= function_weights.sum()
    for function, weight in zip(functions, function_weights):
        function.weight = float(weight)

    # wire successors: conditional branches loop within the function
    # (biased forward so the walk eventually reaches the ret), calls
    # target other functions' entries by execution weight and record
    # their return site, rets are resolved by the walk's call stack
    for function in functions:
        ids = function.block_ids
        for position, block_id in enumerate(ids):
            block = blocks[block_id]
            nxt = ids[min(position + 1, len(ids) - 1)]
            if block.terminator == "ret":
                block.successors = ()
                continue
            succs: List[Tuple[int, float]]
            if block.terminator == "cond":
                # taken → a random intra-function target (possibly a back
                # edge), not-taken → fallthrough; bias forward progress
                target = ids[int(rng.integers(0, len(ids)))]
                taken_p = float(rng.uniform(0.2, 0.6))
                succs = [(target, taken_p), (nxt, 1.0 - taken_p)]
            elif block.terminator == "call":
                n_targets = min(3, len(functions))
                target_funcs = rng.choice(
                    len(functions), size=n_targets, replace=False, p=function_weights
                )
                succs = [
                    (function_entry_blocks[int(fid)], 1.0 / n_targets)
                    for fid in target_funcs
                ]
                block.return_site = nxt
            else:  # indirect: computed jump within the function
                n_targets = min(4, len(ids))
                targets = rng.choice(len(ids), size=n_targets, replace=False)
                probs = rng.dirichlet(np.ones(n_targets))
                succs = [
                    (ids[int(t)], float(p)) for t, p in zip(targets, probs)
                ]
            total = sum(p for _, p in succs)
            block.successors = tuple((t, p / total) for t, p in succs)

    return Binary(name=name, functions=functions, blocks=blocks)


#: bounded LRU of generated binaries keyed by (name, shape.cache_key(), seed)
_BINARY_CACHE: "OrderedDict[Tuple, Binary]" = OrderedDict()
_BINARY_CACHE_MAX = 64


def generate_binary_cached(name: str, shape: BinaryShape, seed: int = 0) -> Binary:
    """Memoized :func:`generate_binary`.

    Generation is deterministic in (name, shape, seed), and a matrix of
    repetitions regenerates the same few binaries thousands of times —
    this returns the *same object*, which also lets downstream
    ``id(binary)``-keyed caches (decoders, path models) hit.  Bounded LRU;
    callers that mutate binaries must use :func:`generate_binary`.
    """
    key = (name, shape.cache_key(), seed)
    cached = _BINARY_CACHE.get(key)
    if cached is not None:
        _BINARY_CACHE.move_to_end(key)
        return cached
    binary = generate_binary(name, shape, seed)
    _BINARY_CACHE[key] = binary
    if len(_BINARY_CACHE) > _BINARY_CACHE_MAX:
        _BINARY_CACHE.popitem(last=False)
    return binary

