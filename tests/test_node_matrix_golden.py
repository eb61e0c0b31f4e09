"""Golden digests of the Fig 13/14 node scheme matrix.

Each cell of {mc, xz, de} x the five-scheme lineup at seeds 7 and 11 runs
on a fresh simulated node with a short window, and its ``CellResult`` —
completion time or throughput, WRMSR count, trace space, sched records
and fired events — is pinned by a blake2b digest of its canonical dict.
A host-speed change to the kernel, program, hwtrace or tracing layers
must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from repro.experiments.scenarios import SCHEME_ORDER
from repro.parallel.matrix import MatrixCell, run_cell

GOLDEN = {
    ("mc", "Oracle", 7): "38c3abf93485a0cb394bab73dd6cf83c",
    ("mc", "EXIST", 7): "c9a38516c905f26c37c58330b0674650",
    ("mc", "StaSam", 7): "0cb3da0c4ff61695038c5327632c065e",
    ("mc", "eBPF", 7): "cd1e4e537297be6eeb9e87b5987e3b22",
    ("mc", "NHT", 7): "1631a3f18ff6531c78fd78d76001f23f",
    ("xz", "Oracle", 7): "d666f9cd3321b00f8b2f282f9db65618",
    ("xz", "EXIST", 7): "0daba8b3567cc290615e53065f0efe71",
    ("xz", "StaSam", 7): "26c97ac645f137546e6c0ebd16fa7c7b",
    ("xz", "eBPF", 7): "1f8301da3a7d3aed52aabb4b05abbe2b",
    ("xz", "NHT", 7): "8cebca62e2737bb8bf49b4999568da16",
    ("de", "Oracle", 7): "d74b6f3d669ea6486d56e66864f891e7",
    ("de", "EXIST", 7): "c9dec266045363235dfceb478f4526de",
    ("de", "StaSam", 7): "b08c9ffc51ba2ec148c598c264bb5a06",
    ("de", "eBPF", 7): "37695d2bb201b142a420e17a50ce5f1f",
    ("de", "NHT", 7): "72bf8dc2b499832c367e9e856fbdb7b8",
    ("mc", "Oracle", 11): "704c684307d9dbcbe51b1526b452c395",
    ("mc", "EXIST", 11): "f209898fd1df781ac0308f1d3abbea65",
    ("mc", "StaSam", 11): "64e357e3e600e8cee7a98359b6a809b8",
    ("mc", "eBPF", 11): "987a18c4f3d37e43fcfd33134340ffbc",
    ("mc", "NHT", 11): "b60de64020ba848b9852974d7bc1cce8",
    ("xz", "Oracle", 11): "b86f720befd53ba31e4792e4b71c24df",
    ("xz", "EXIST", 11): "399c0ee2e670c37176a9bcdf2997052f",
    ("xz", "StaSam", 11): "fc4401d310f1b69bdada8192b6ea5a5d",
    ("xz", "eBPF", 11): "6633d27759c18d47a192f928a03387e1",
    ("xz", "NHT", 11): "32086d5a3a0170cbded790faca61737a",
    ("de", "Oracle", 11): "2e07c302e49111d5c3cb4c41fd5e87b5",
    ("de", "EXIST", 11): "83762cb13d40cec1abe1199fac1db5b4",
    ("de", "StaSam", 11): "5153b9ee4fca66b1dedd8ea301647663",
    ("de", "eBPF", 11): "b7b3383105a55d097b80956c7eff236f",
    ("de", "NHT", 11): "d8c28a03bd53738e6c46e3d71578afd2",
}


def _digest(result) -> str:
    canonical = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def test_golden_covers_the_lineup():
    assert {scheme for _, scheme, _ in GOLDEN} == set(SCHEME_ORDER)


@pytest.mark.parametrize("workload,scheme,seed", sorted(GOLDEN))
def test_cell_matches_golden(workload, scheme, seed):
    cell = MatrixCell(
        workload=workload, scheme=scheme, seed=seed, window_s=0.01, warmup_s=0.02
    )
    assert _digest(run_cell(cell)) == GOLDEN[(workload, scheme, seed)]
