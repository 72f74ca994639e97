"""Run the 208-case equivalence corpus under the transport sanitizer.

The same 0xFA57 corpus recipe the pool/service equivalence suites
share, executed through an :class:`~repro.pool.EnginePool` with every
sanitizer domain armed, on one board count (each batch takes the
pool's own inline-or-ship decision).  Two gates, both required:

* every result stays bit-exact against the serial
  :class:`~repro.addresslib.VectorExecutor` reference (the sanitizer
  must observe, never perturb);
* the sanitizer emits zero error-severity diagnostics (the healthy
  stack is clean under instrumentation).

Writes a JSON report (``--out``) with per-shard accounting and every
finding, for CI artifact upload.  Exit status is non-zero on any
mismatch or error-severity finding.

    PYTHONPATH=src python scripts/run_sanitized_corpus.py \
        --out sanitized_corpus.json
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.addresslib import (AddressLib, BatchCall, INTER_OPS, INTRA_OPS,
                              SoftwareBackend, VectorExecutor)
from repro.analysis.sanitize import install_sanitizer, uninstall_sanitizer
from repro.image import Frame, ImageFormat, noise_frame
from repro.pool import EnginePool

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26
SEED = 0xFA57


def _random_batch_call(rng: random.Random) -> BatchCall:
    """One corpus case as a batch call (the 0xFA57 recipe's geometry)."""
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.5:
        return BatchCall.intra(rng.choice(_INTRA), frame_a)
    frame_b = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.3:
        return BatchCall.inter_reduce(rng.choice(_INTER), frame_a,
                                      frame_b)
    return BatchCall.inter(rng.choice(_INTER), frame_a, frame_b)


def _serial_reference(call: BatchCall) -> Union[Frame, int]:
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, call.frames[0],
                                           call.frames[1], call.channels)
    if len(call.frames) == 2:
        return VectorExecutor.inter(call.op, call.frames[0],
                                    call.frames[1], call.channels)
    return VectorExecutor.intra(call.op, call.frames[0], call.channels)


def _same(got: Union[Frame, int], want: Union[Frame, int]) -> bool:
    if isinstance(want, int):
        return bool(got == want)
    return bool(got.equals(want))  # type: ignore[union-attr]


def _finding_dict(diag: Any, shard: int) -> Dict[str, Any]:
    return {"shard": shard, "rule_id": diag.rule_id,
            "severity": diag.severity.name, "message": diag.message}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="208-case corpus under the transport sanitizer.")
    parser.add_argument("--out", default="sanitized_corpus.json",
                        metavar="PATH",
                        help="where to write the JSON report")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="engine pool board count (default 2)")
    args = parser.parse_args(argv)

    shards: List[Dict[str, Any]] = []
    findings: List[Dict[str, Any]] = []
    mismatches = 0
    sanitizer = install_sanitizer(("all",))
    with EnginePool.of_engines(args.workers) as pool:
        for shard in range(SHARDS):
            rng = random.Random(SEED + shard)
            calls = [_random_batch_call(rng)
                     for _ in range(CASES_PER_SHARD)]
            lib = AddressLib(SoftwareBackend())
            results = lib.run_batch(calls, pool=pool)
            shard_mismatches = sum(
                0 if _same(got, _serial_reference(call)) else 1
                for call, got in zip(calls, results))
            mismatches += shard_mismatches
            new = sanitizer.drain()
            findings.extend(_finding_dict(d, shard) for d in new)
            shards.append({"shard": shard, "cases": len(calls),
                           "mismatches": shard_mismatches,
                           "findings": len(new)})
            print(f"shard {shard}: {len(calls)} cases, "
                  f"{shard_mismatches} mismatch(es), "
                  f"{len(new)} finding(s)")
        books = pool.report().transport
    uninstall_sanitizer()

    errors = [f for f in findings if f["severity"] == "ERROR"]
    payload = {
        "seed": SEED, "shards": SHARDS,
        "cases": SHARDS * CASES_PER_SHARD, "workers": args.workers,
        "sanitize": ["all"], "pool_calls": books.pool_calls,
        "bypass_calls": books.bypass_calls, "mismatches": mismatches,
        "error_findings": len(errors), "findings": findings,
        "per_shard": shards,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.out}: {payload['cases']} cases, "
          f"{mismatches} mismatch(es), {len(findings)} finding(s) "
          f"({len(errors)} error-severity)")
    if mismatches or errors:
        print("sanitized corpus: FAILED (results drifted or the "
              "sanitizer flagged errors)")
        return 1
    print("sanitized corpus: OK (bit-exact, zero error-severity "
          "findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
