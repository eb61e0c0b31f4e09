"""Unit tests for binary images and their lookup tables."""

import pytest

from repro.program.binary import (
    ACCESS_WIDTHS,
    BasicBlock,
    Binary,
    Function,
    FunctionCategory,
    MemoryProfile,
)


def _make_block(block_id, function_id=0, address=None, terminator="cond"):
    return BasicBlock(
        block_id=block_id,
        function_id=function_id,
        address=address if address is not None else 0x1000 + block_id * 0x40,
        size_bytes=0x40,
        n_instructions=10,
        terminator=terminator,
    )


def _make_binary():
    blocks = [_make_block(0), _make_block(1), _make_block(2, terminator="ret")]
    memory = MemoryProfile(
        read_only={4: 0.5, 8: 0.5},
        write_only={8: 1.0},
        read_write={4: 1.0},
    )
    functions = [
        Function(
            function_id=0,
            name="f0",
            category=FunctionCategory.APP,
            entry_block=0,
            block_ids=(0, 1, 2),
            memory=memory,
        )
    ]
    return Binary("testbin", functions, blocks)


class TestFunctionCategory:
    def test_families(self):
        assert FunctionCategory.MEM_COPY.family == "memory"
        assert FunctionCategory.SYNC_MUTEX.family == "sync"
        assert FunctionCategory.KERNEL_IRQ.family == "kernel"
        assert FunctionCategory.APP.family == "app"

    def test_every_category_has_family(self):
        for category in FunctionCategory:
            assert category.family in {"memory", "sync", "kernel", "app"}


class TestMemoryProfile:
    def test_valid_profile_passes(self):
        MemoryProfile(read_only={4: 1.0}).validate()

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MemoryProfile(read_only={4: 0.5, 8: 0.4}).validate()

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile(write_only={3: 1.0}).validate()

    def test_widths_constant(self):
        assert ACCESS_WIDTHS == (1, 2, 4, 8)


class TestBinaryLookups:
    def test_block_by_id(self):
        binary = _make_binary()
        assert binary.block(1).block_id == 1

    def test_duplicate_addresses_rejected(self):
        blocks = [_make_block(0, address=0x1000), _make_block(1, address=0x1000)]
        functions = [
            Function(0, "f", FunctionCategory.APP, 0, (0, 1), MemoryProfile())
        ]
        with pytest.raises(ValueError):
            Binary("bad", functions, blocks)

    def test_size_computed_from_blocks(self):
        binary = _make_binary()
        last = binary.block(2)
        assert binary.size_bytes == last.end_address - binary.base_address
