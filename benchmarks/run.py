"""Layered construct/verify benchmark for bianchicert.

    python3 benchmarks/run.py --workload fig8-series --seed 1 --seconds 44 --trace 0

Run from the repository root; the library is imported from `src/`, so no
install is needed.  Load is a closed loop with a single caller in one
process and no threads: the next operation starts when the previous one
returns.

Untraced run (`--trace 0`): rounds until `--seconds` have passed.  A round
builds every input's witness once (validate the parameters,
`construct_witness`, `render_witnesses`), then parses and verifies every
record once (`parse_witnesses`, `verify_witness`); the records are the
honest witnesses plus tampered copies of a seeded quarter of them.  Four
times, spread over the run, a batch of subprocesses runs between rounds: a
fresh interpreter runs `import bianchicert` and builds the figure-eight
level-4 image, and `python -m bianchicert.cli construct ... --out F` then
`verify F` run on the workload's fixed CLI slice.

On a shared host, other load slows every operation for stretches of
seconds (by up to 1.7x on a 2-vCPU Xeon VM), so every figure is a median
over repeats spread across the run: each in-process figure comes from each
input's (or record's) median latency over the rounds, and the throughputs
count one witness or record per item at that latency.  `setup_s` is the
median launch, `cli_s` the median construct+verify pair, and
`cli_peak_rss_mib` the median over pairs of the larger child's peak RSS.

Traced run (`--trace 1`): wraps the library's layers (see spans.py) and
times passes over a fixed part of the workload, the anchors plus the first
seeded inputs; each untraced pass is followed by the same pass traced.  It
reports per-layer call counts and self times, operation counts per witness,
and the tracing overhead.

Correctness: the p=20, q=7 witnesses must match the golden table
bit-exactly, every honest record must verify PASS, every tampered record
must verify FAIL, and the CLI must write exactly the witness text built in
process.  An operation that raises or gives a wrong result counts as failed.
The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
try:
    from bianchicert import congruence, golden, pipeline, psl2, quadint
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import bianchicert from {SRC}: {exc}")
from spans import LAYERS, NOT_ON_EVERY_WORKLOAD, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAMPER_EVERY = 4  # one tampered copy per this many honest records
MUTATED_FIELDS = ("n_k", "D_k", "alpha_k", "beta_k", "r", "t", "g_k", "word")
CHILD_BATCHES = 4
SETUP_REPS = 3  # per batch
CLI_REPS = 4  # per batch
TRACE_SEEDED = 16  # seeded inputs in a traced pass, besides the anchors
SETUP_CODE = ("import bianchicert\n"
              "from bianchicert import congruence\n"
              "congruence.gamma8_level4_image()\n")

clock = time.perf_counter


@dataclass
class Tally:
    """Operations attempted and the ones that failed, with a reason each."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)


@dataclass(frozen=True)
class Record:
    text: str
    honest: bool
    label: str


# The operations call through module attributes, so that a traced run's
# wrappers (installed into the module namespaces) are the ones called.
def construct_op(inp) -> tuple[str, object]:
    if inp.mode == pipeline.FIG8:
        params = pipeline.validate_fig8(inp.p, inp.q)
    else:
        params = pipeline.validate_general(inp.d, inp.xi)
    w = pipeline.construct_witness(inp.mode, params, inp.k)
    return pipeline.render_witnesses([w]), w


def verify_op(text: str) -> bool:
    (w,) = pipeline.parse_witnesses(text)
    return pipeline.verify_witness(w).ok


# -- tampered records -------------------------------------------------------


def _mutate(key: str, value: str, d: int, delta: int, entry: int) -> str:
    if key in ("n_k", "D_k", "r", "t"):
        return str(int(value) + delta)
    if key in ("alpha_k", "beta_k"):
        return str(quadint.parse_quadint(value, d) + delta)
    if key == "g_k":
        entries = list(psl2.parse_mat2(value, d).entries())
        entries[entry] = entries[entry] + delta
        return psl2.render_mat2(psl2.Mat2(*entries))
    word = psl2.parse_word(value)  # sigma^n h^1 sigma^m h^-1 sigma^n
    gen, exponent = word[2]
    return psl2.render_word(word[:2] + ((gen, exponent + delta),) + word[3:])


def tamper(text: str, key: str, delta: int, entry: int) -> str:
    lines = text.splitlines()
    d = int(next(line for line in lines if line.startswith("d: "))[3:])
    for i, line in enumerate(lines):
        name, _, value = line.partition(": ")
        if name == key:
            lines[i] = f"{key}: {_mutate(key, value, d, delta, entry)}"
    return "\n".join(lines) + "\n"


def verify_records(texts: list[str], seed: int) -> list[Record]:
    """The honest records, each followed, for a seeded quarter of them, by a
    copy with one field changed in meaning.  Every field in MUTATED_FIELDS
    is used in turn."""
    rng = random.Random(f"tamper-{seed}")
    chosen = set(rng.sample(range(len(texts)), max(1, len(texts) // TAMPER_EVERY)))
    offset = rng.randrange(len(MUTATED_FIELDS))
    records = []
    for i, text in enumerate(texts):
        records.append(Record(text, True, f"honest #{i}"))
        if i in chosen:
            key = MUTATED_FIELDS[offset % len(MUTATED_FIELDS)]
            offset += 1
            delta = rng.choice((-1, 1)) * rng.randint(1, 9)
            records.append(Record(tamper(text, key, delta, rng.randrange(4)), False,
                                  f"#{i} with {key} changed by {delta}"))
    return records


# -- timed rounds -----------------------------------------------------------


@dataclass
class Phase:
    """Every latency of each item, one per round."""

    per_item: list[list[float]]

    @classmethod
    def of(cls, items: list) -> "Phase":
        return cls([[] for _ in items])

    @property
    def rounds(self) -> int:
        return len(self.per_item[0])

    def typical(self) -> list[float]:
        """Each item's median latency."""
        return [statistics.median(lat) for lat in self.per_item]

    def rate(self) -> float:
        """Items per second, at each item's median latency."""
        return len(self.per_item) / sum(self.typical())

    def percentile_ms(self, q: int) -> float:
        return statistics.quantiles(self.typical(), n=100, method="inclusive")[q - 1] * 1e3


def construct_round(inputs, phase: Phase, tally: Tally, op: Callable = construct_op,
                    on_witness: Optional[Callable] = None) -> tuple[list, list]:
    """Build every input's witness once, one after another.  Returns the
    texts and witnesses (None where the construction raised)."""
    texts: list[Optional[str]] = []
    witnesses: list = []
    for inp, latencies in zip(inputs, phase.per_item):
        t0 = clock()
        try:
            text, w = op(inp)
        except Exception:
            tally.fail(f"construct {inp.describe()} raised:\n{traceback.format_exc()}")
            text = w = None
        latencies.append(clock() - t0)
        texts.append(text)
        witnesses.append(w)
        if on_witness is not None:
            on_witness(inp, w)
    tally.attempted += len(inputs)
    return texts, witnesses


def verify_round(records: list[Record], phase: Phase, tally: Tally,
                 op: Callable = verify_op) -> None:
    """Parse and verify every record once; a verdict other than PASS for an
    honest record, or FAIL for a tampered one, is a failure."""
    for record, latencies in zip(records, phase.per_item):
        t0 = clock()
        try:
            ok = op(record.text)
        except Exception:
            ok = None
            tally.fail(f"verify {record.label} raised:\n{traceback.format_exc()}")
        latencies.append(clock() - t0)
        if ok is not None and ok != record.honest:
            tally.fail(f"verify {record.label}: {'PASS' if ok else 'FAIL'}")
    tally.attempted += len(records)


# -- correctness gates ------------------------------------------------------


def check_golden(inputs, witnesses, tally: Tally) -> None:
    """The p=20, q=7 witnesses against the published table, bit-exactly."""
    rows = {row.k: row for row in golden.golden_rows()}
    for inp, w in zip(inputs, witnesses):
        if inp.mode != pipeline.FIG8 or (inp.p, inp.q) != (golden.GOLDEN_P, golden.GOLDEN_Q):
            continue
        row = rows.get(inp.k)
        if w is None or row is None:
            continue
        if w.D_k != row.D_k or w.g_k != row.g_k or w.h != golden.golden_h():
            tally.fail(f"golden mismatch at p=20 q=7 k={inp.k}")


def honest_texts(texts: list[Optional[str]]) -> list[str]:
    return [t for t in texts if t is not None]


# -- subprocesses -----------------------------------------------------------


def run_child(label: str, argv: list[str], tally: Tally) -> tuple[bool, float, int]:
    """Run one child to completion, as one attempted operation: (exited 0,
    wall seconds, peak RSS KiB).  A child that exits otherwise is a failure,
    with its stderr as the reason."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = OUT / "child-stderr.txt"
    with open(err_path, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    tally.attempted += 1
    if proc.returncode != 0:
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        tally.fail(f"{label} child exited {proc.returncode}:\n{stderr}")
    return proc.returncode == 0, wall, usage.ru_maxrss


@dataclass
class ChildTimes:
    setup_s: list[float] = field(default_factory=list)
    cli_s: list[float] = field(default_factory=list)
    cli_peak_mib: list[float] = field(default_factory=list)


def measure_children(workload, expected: str, times: ChildTimes, tally: Tally,
                     warm_up: bool) -> None:
    """One batch of set-up launches and CLI construct+verify pairs.  With
    `warm_up`, one untimed launch of each comes first, to fill the file
    cache."""
    path = OUT / f"cli-{workload.name}.txt"
    cli = [sys.executable, "-m", "bianchicert.cli"]
    for rep in range(SETUP_REPS + warm_up):
        _, wall, _ = run_child("set-up", [sys.executable, "-c", SETUP_CODE], tally)
        if rep >= warm_up:
            times.setup_s.append(wall)
    for rep in range(CLI_REPS + warm_up):
        built, wall_c, rss_c = run_child("CLI construct", cli + [
            "construct", *workload.cli_args, "--out", str(path)], tally)
        _, wall_v, rss_v = run_child("CLI verify", cli + ["verify", str(path)], tally)
        if built and path.read_text(encoding="utf-8") != expected:
            tally.fail("CLI witness file differs from the in-process witnesses")
        if rep >= warm_up:
            times.cli_s.append(wall_c + wall_v)
            times.cli_peak_mib.append(max(rss_c, rss_v) / 1024)


# -- the two runs -----------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: int, tally: Tally) -> tuple[dict, dict]:
    congruence.gamma8_level4_image()  # the set-up that setup_s times, done before timing
    inputs = workload.inputs
    build = Phase.of(inputs)
    gc.collect()
    start = clock()
    texts, witnesses = construct_round(inputs, build, tally)
    check_golden(inputs, witnesses, tally)
    records = verify_records(honest_texts(texts), seed)
    check = Phase.of(records)
    verify_round(records, check, tally)
    cli_expected = "\n".join(t or "" for t in texts[len(texts) - len(workload.cli_inputs):])
    children = ChildTimes()
    batches = 0
    while batches < CHILD_BATCHES or clock() - start < seconds:
        if batches < CHILD_BATCHES and clock() - start >= batches * seconds / CHILD_BATCHES:
            measure_children(workload, cli_expected, children, tally, warm_up=not batches)
            batches += 1
            continue
        again, _ = construct_round(inputs, build, tally)
        if again != texts:
            tally.fail("a round built different witness text from the first")
        verify_round(records, check, tally)

    digest = hashlib.sha256("\n".join(honest_texts(texts)).encode()).hexdigest()
    metrics = {
        "construct_wps": metric(build.rate(), "1/s"),
        "verify_wps": metric(check.rate(), "1/s"),
        "construct_p50_ms": metric(build.percentile_ms(50), "ms"),
        "construct_p90_ms": metric(build.percentile_ms(90), "ms"),
        "verify_p50_ms": metric(check.percentile_ms(50), "ms"),
        "verify_p90_ms": metric(check.percentile_ms(90), "ms"),
        "cli_s": metric(statistics.median(children.cli_s), "s"),
        "cli_peak_rss_mib": metric(statistics.median(children.cli_peak_mib), "MiB"),
        "setup_s": metric(statistics.median(children.setup_s), "s"),
    }
    built = f"{len(build.per_item)} inputs, median of {build.rounds} rounds"
    checked = f"{len(check.per_item)} records, median of {check.rounds} rounds"
    samples = {
        "construct_wps": built, "construct_p50_ms": built, "construct_p90_ms": built,
        "verify_wps": checked, "verify_p50_ms": checked, "verify_p90_ms": checked,
        "cli_s": f"median of {len(children.cli_s)} pairs",
        "cli_peak_rss_mib": f"median of {len(children.cli_peak_mib)} pairs",
        "setup_s": f"median of {len(children.setup_s)} launches",
    }
    print(f"witness_sha256 {digest} ({len(honest_texts(texts))} witnesses, "
          f"{sum(not r.honest for r in records)} tampered records)")
    return metrics, samples


def _entry_bits(w) -> int:
    return max(max(abs(e.x), abs(e.y)).bit_length() for e in w.g_k.entries())


class OpCounter:
    """Layer calls made by each construction in a traced pass, with the
    witness's operand sizes."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.rows: list[dict] = []
        self.last: list[int] = []

    def start(self) -> None:
        self.last = list(self.tracer.calls)

    def __call__(self, inp, w) -> None:
        now = list(self.tracer.calls)
        if w is not None:
            names = self.tracer.names
            delta = {names[i]: a - b for i, (a, b) in enumerate(zip(now, self.last))}
            self.rows.append({
                "input": inp.describe(),
                "quadint_mul": delta["quadint.QuadInt.mul"],
                "mat2_mul": delta["psl2.Mat2.mul"],
                "psl_new": delta["psl2.PslElement.new"],
                "n_k_bits": abs(w.n_k).bit_length(),
                "D_k_bits": w.D_k.bit_length(),
                "g_k_entry_bits": _entry_bits(w),
            })
        self.last = now


def run_traced(workload, seed: int, seconds: int, tally: Tally) -> tuple[dict, dict]:
    inputs = workload.inputs[:TRACE_SEEDED] + workload.anchors
    congruence.gamma8_level4_image()
    texts, witnesses = construct_round(inputs, Phase.of(inputs), Tally())
    check_golden(inputs, witnesses, tally)
    records = verify_records(honest_texts(texts), seed)

    tracer = Tracer()
    counter = OpCounter(tracer)
    traced_construct = tracer.root("bench.construct", construct_op)
    traced_verify = tracer.root("bench.verify", verify_op)

    def one_pass(traced: bool) -> float:
        """Set-up from a cleared cache, every input built once, every record
        verified once; returns the wall seconds."""
        congruence.gamma8_level4_image.cache_clear()
        if traced:
            tracer.install()
        try:
            t0 = clock()
            congruence.gamma8_level4_image()
            counter.start()
            again, _ = construct_round(inputs, Phase.of(inputs), tally,
                                       traced_construct if traced else construct_op,
                                       counter if traced and not counter.rows else None)
            verify_round(records, Phase.of(records), tally,
                         traced_verify if traced else verify_op)
            wall = clock() - t0
        finally:
            tracer.uninstall()
        if again != texts:
            tally.fail("a pass built different witness text from the first")
        return wall

    untraced_s, traced_s, self_ms, calls = [], [], [], None
    start = clock()
    while not traced_s or clock() - start < seconds:
        untraced_s.append(one_pass(traced=False))
        tracer.reset()
        traced_s.append(one_pass(traced=True))
        own, total = tracer.self_and_total_s()
        self_ms.append([s * 1e3 for s in own])
        if calls is None:
            calls, first_total_ms = list(tracer.calls), [t * 1e3 for t in total]
        elif calls != tracer.calls:
            tally.fail("layer call counts differ between identical passes")

    stem = f"{workload.name}-seed{seed}"
    tracer.write_spans(str(OUT / f"spans-{stem}.tsv.gz"))
    with open(OUT / f"witness-ops-{stem}.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(counter.rows[0]) + "\n")
        for row in counter.rows:
            fh.write("\t".join(str(v) for v in row.values()) + "\n")

    median_self = [statistics.median(column) for column in zip(*self_ms)]
    print(f"{'layer':<34}{'calls':>10}{'total_ms':>12}{'self_ms':>12}  moves")
    metrics = {}
    for i, layer in enumerate(LAYERS):
        print(f"{layer.name:<34}{calls[i]:>10}{first_total_ms[i]:>12.3f}"
              f"{median_self[i]:>12.3f}  {layer.moves}")
        metrics[f"{layer.name}.calls"] = metric(calls[i], "count")
        if layer.name not in NOT_ON_EVERY_WORKLOAD:
            metrics[f"{layer.name}.self_ms"] = metric(median_self[i], "ms")
    rows = counter.rows
    for key, name in (("quadint_mul", "ops.quadint_mul_per_witness"),
                      ("mat2_mul", "ops.mat2_mul_per_witness"),
                      ("psl_new", "ops.psl_new_per_witness")):
        metrics[name] = metric(sum(r[key] for r in rows) / len(rows), "count")
    metrics["ops.mat2_mul_per_n_k_bit"] = metric(
        sum(r["mat2_mul"] for r in rows) / sum(r["n_k_bits"] for r in rows), "count/bit")
    for key in ("n_k_bits", "D_k_bits", "g_k_entry_bits"):
        metrics[f"witness.{key}_max"] = metric(max(r[key] for r in rows), "bit")
    metrics["trace.untraced_s"] = metric(statistics.median(untraced_s), "s")
    metrics["trace.traced_s"] = metric(statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = metric(
        metrics["trace.traced_s"]["value"] - metrics["trace.untraced_s"]["value"], "s")
    samples = {name: f"{len(traced_s)} traced passes" for name in metrics}
    print(f"spans written to {OUT.name}/spans-{stem}.tsv.gz ({len(tracer.starts)} spans); "
          f"per-witness counts to {OUT.name}/witness-ops-{stem}.tsv")
    return metrics, samples


# -- entry point ------------------------------------------------------------


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics, samples = run(workload, args.seed, args.seconds, tally)

    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']} ({samples[name]})")
    failed = len(tally.failures)
    print(f"{workload.name} error_rate = {failed / tally.attempted:.6g} "
          f"(failed {failed} of {tally.attempted})")
    for failure in tally.failures[:5]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
