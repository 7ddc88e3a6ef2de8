"""The benchmark's raw-name operations give the same answers at the same fuel.

No command in the CLI battery reaches the decode route (`RawEvalStream`) or
drains an injected name (`InjectionOutput`) at the benchmark's depth, so
this test pins them: `codec` operations 0-29 and the first three `inject`
and `injrec_extract` operations of `transform`, for seed 7, built by
bench/workloads.py.  Each row is (index, kind, fuel on the benchmark's root
tanks, digest of the answer); the digest is the first 16 hex digits of the
SHA-256 of the answer's repr.  The `codec` and `inject` answers were
captured before the decode route read its names in runs, the
`injrec_extract` answers before the injected output drained its inner name
in runs.  The `inject` and `injrec_extract` fuel was captured again when
extraction came to read an injected output only up to the marker block it
needs (`transform.Extraction`).  The `injrec_extract` rows run on one
`R_drop`, built as bench/run.py's `build_shared` builds it, in index
order.  bench/workloads.py is imported with bytecode writing off, so
nothing under bench/ is written.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from baire import streams, transform

BENCH = Path(__file__).resolve().parent.parent / "bench"

CODEC = (
    (0, 'raw_decided', 1761, '0150b72cd068f4fd'),
    (1, 'raw_decided', 1761, '0150b72cd068f4fd'),
    (2, 'raw_decided', 1761, '0150b72cd068f4fd'),
    (3, 'raw_decided', 1761, '0150b72cd068f4fd'),
    (4, 'raw_open', 30065, '3f780bcccfc2b9ea'),
    (5, 'raw_open', 30065, '56f226f8df2a883d'),
    (6, 'raw_open', 30065, '07af20d38fdd9338'),
    (7, 'raw_open', 30065, '25b94781f7159dcd'),
    (8, 'file', 60000, '6cf10e66b63da1d5'),
    (9, 'file', 60000, 'e24432dd7ad8afc3'),
    (10, 'raw_decided', 1816, '8bb1a46e59bf90f8'),
    (11, 'raw_decided', 1816, '8bb1a46e59bf90f8'),
    (12, 'raw_decided', 1816, '8bb1a46e59bf90f8'),
    (13, 'raw_decided', 1816, '8bb1a46e59bf90f8'),
    (14, 'raw_open', 30065, 'c94555d4cd67a1ed'),
    (15, 'raw_open', 30065, 'f9fd984ea1404bf7'),
    (16, 'raw_open', 30065, '2c3beb4cc3a3f3b3'),
    (17, 'raw_open', 30065, '5edc6136dd7afea9'),
    (18, 'file', 60000, '3a274881bdd82925'),
    (19, 'file', 60000, '804610c83a792e2a'),
    (20, 'raw_decided', 2050, 'b5f7c3650efffde7'),
    (21, 'raw_decided', 2050, 'b5f7c3650efffde7'),
    (22, 'raw_decided', 2050, 'b5f7c3650efffde7'),
    (23, 'raw_decided', 2050, 'b5f7c3650efffde7'),
    (24, 'raw_open', 30065, '0e99b2ac6b112a1d'),
    (25, 'raw_open', 30065, '7602ff953c7d400f'),
    (26, 'raw_open', 30065, '35105ad2c95e2e41'),
    (27, 'raw_open', 30065, '35105ad2c95e2e41'),
    (28, 'file', 60000, '8349bb5d2d44e8d6'),
    (29, 'file', 60000, '8c2c137a62bc25bb'),
)

INJECT = (
    (7, 'inject', 81769, '645168124aa481db'),
    (10, 'inject', 81769, '17d22fffb47dbf15'),
    (13, 'inject', 81767, '673da96234e11fff'),
)

INJREC_EXTRACT = (
    (8, 'injrec_extract', 156048, '6179536ccfc1a6a1'),
    (11, 'injrec_extract', 155987, '3edf9a100fc3f5a1'),
    (14, 'injrec_extract', 156015, '19add985d0a186ce'),
)


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def _row(op, i):
    result = op.run()
    assert op.verify(result.obs)[0]
    return (i, op.kind, result.fuel, hashlib.sha256(repr(result.obs).encode()).hexdigest()[:16])


def test_codec_answers_and_fuel(workloads):
    ops = workloads.CodecOps(7, {}, None)
    assert tuple(_row(ops.op(i), i) for i, *_ in CODEC) == CODEC


def test_inject_answers_and_fuel(workloads):
    ops = workloads.TransformOps(7, {"inj": transform.injection()}, None)
    assert tuple(_row(ops.op(i), i) for i, *_ in INJECT) == INJECT


def test_injrec_extract_answers_and_fuel(workloads):
    def drop(r_name, x, fuel):
        return streams.odd_part(x)

    R_drop = transform.injective_recursion(drop, "drop")
    ops = workloads.TransformOps(7, {"R_drop": R_drop}, None)
    assert tuple(_row(ops.op(i), i) for i, *_ in INJREC_EXTRACT) == INJREC_EXTRACT
