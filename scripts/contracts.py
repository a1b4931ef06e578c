#!/usr/bin/env python3
"""Run every determinism and crash-safety contract against a build.

Usage: scripts/contracts.py BUILD_DIR OUT_DIR

A contract runs a bench or example binary, perturbs something that must
not matter — the thread count, the feed batch size, the wire format, a
kill followed by a resume — and asserts that the output did not change.
Each Row of CONTRACTS is one process: a binary under BUILD_DIR with its
argv and env, the exit status it must end with, and the checks that must
hold once it has. Checks may read the files of any earlier row.

Rows run in table order. Each runs in its own directory OUT_DIR/<name>,
wiped first, with stdout and stderr captured to `log` there; argv and env
strings may name "{out}" and "{build}" (OUT_DIR and BUILD_DIR, absolute).
Check paths are relative to OUT_DIR. The first failure stops the run with
exit status 1 and prints the tail of the failing row's log.
"""

import filecmp
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_json import (  # noqa: E402
    compare, fail, load, scheduling_dependent, validate)

# subprocess reports a death by signal as minus the signal number (bash: 137).
SIGKILLED = -signal.SIGKILL

# A check gets OUT_DIR and the row's own directory; it raises on failure.
Check = Callable[[Path, Path], None]


class Row(NamedTuple):
    """BUILD_DIR/binary run with argv and env in OUT_DIR/name; it must exit
    with status, and then every check must pass."""
    name: str
    binary: str
    argv: tuple = ()
    env: dict = {}
    status: int = 0
    checks: tuple = ()


# ---- checks -----------------------------------------------------------------

def valid(path) -> Check:
    """The quicksand-bench-v1 document validates."""
    return lambda out, row: validate(load(out / path), path)


def same(a, b) -> Check:
    """check_bench_json.py --compare: equal deterministic views."""
    return lambda out, row: compare(out / a, out / b)


def resumed(a, b) -> Check:
    """check_bench_json.py --compare-resume: B resumed and equals A."""
    return lambda out, row: compare(out / a, out / b, resume=True)


def identical(a, b) -> Check:
    """The two files are byte-identical (cmp)."""
    def check(out, row):
        if not filecmp.cmp(out / a, out / b, shallow=False):
            fail(f"{a} and {b} differ")
    return check


def log_has(text) -> Check:
    """The row's combined stdout/stderr contains text."""
    def check(out, row):
        if text not in (row / "log").read_text(errors="replace"):
            fail(f"log does not contain {text!r}")
    return check


def exists(path) -> Check:
    """The file exists and is not empty."""
    def check(out, row):
        if not (out / path).is_file() or (out / path).stat().st_size == 0:
            fail(f"{path} is missing or empty")
    return check


def absent(path) -> Check:
    """The file does not exist."""
    def check(out, row):
        if (out / path).exists():
            fail(f"{path} exists")
    return check


def reserved(path, namespace) -> Check:
    """The run emitted <namespace>.* metrics and the checker exempts them."""
    def check(out, row):
        doc = load(out / path)
        names = [name for name in {**doc["counters"], **doc["gauges"]}
                 if name.startswith(namespace + ".")]
        if not names:
            fail(f"{path} has no {namespace}.* metrics")
        if not all(scheduling_dependent(name) for name in names):
            fail(f"{namespace}.* is not a reserved namespace")
    return check


def holds(path, predicate) -> Check:
    """predicate(the parsed JSON file) is true; its docstring says what."""
    def check(out, row):
        if not predicate(load(out / path)):
            fail(f"{path}: not true that {predicate.__doc__}")
    return check


def profile_stages(doc):
    """the profiled run has stages parse, sanitize, churn"""
    return [stage["name"] for stage in doc.get("stages", [])] == [
        "parse", "sanitize", "churn"]


def seed_2_quarantined(doc):
    """the 4 cells on seed 2 are gaps quarantined after 3 attempts that
    exited 42, and the 8 cells on seeds 1 and 3 merged"""
    gaps = doc["gaps"]
    return (doc["totals"]["cells"] == 12 and doc["totals"]["merged"] == 8
            and len(gaps) == 4
            and all(gap["status"] == "quarantined"
                    and gap["coordinates"]["seed"] == "2"
                    and gap["attempts"] == 3 and "42" in gap["last_error"]
                    for gap in gaps)
            and {cell["coordinates"]["seed"] for cell in doc["cells"]}
            == {"1", "3"})


def no_gaps(doc):
    """the matrix has no gaps"""
    return doc["totals"]["gaps"] == 0


# ---- the table --------------------------------------------------------------

JSON = ("--json", "run.json")
FIG3 = "bench/fig3_left_churn"
XMAT = "examples/xmat"
DAEMON = "bench/daemon_chaos"
DAEMON_ARGS = ("--rate", "0.3", "--days", "7")
POPULATION_ARGS = ("--clients", "20000", "--days", "10",
                   "--shard-clients", "2500")
POPULATION_CSVS = ("population_scale.csv", "population_scale_per_as.csv")

# 2 fault rates x 2 attacks x 3 seeds = 12 cells; a tiny retry backoff
# keeps the chaos legs fast. Written to OUT_DIR before any row runs.
MATRIX = """bench = matrix_demo
timeout_ms = 120000
retries = 2
retry_backoff_ms = 5
summary_key = alerts

arg.days = 1
arg.countermeasure = monitor

axis.fault_rate = 0 0.02
axis.attack = none hijack
axis.seed = 1 2 3
"""
CONFIGS = {
    "matrix.conf": MATRIX,
    "matrix_t1.conf": MATRIX + "arg.threads = 1\n",
    "matrix_t4.conf": MATRIX + "arg.threads = 4\n",
}


def xmat(config, out, *extra):
    return ("--config", "{out}/" + config, "--bench-dir", "{build}/bench",
            "--out", out, *extra)


def kill_resume(case, binary, args, abort_after, csvs, checks=()):
    """Uninterrupted, hard-aborted (QUICKSAND_CKPT_ABORT_AFTER: _Exit(42)
    after the n-th recorded shard) and resumed runs of a checkpointed
    bench; the resumed JSON and CSVs must equal the uninterrupted ones.
    checks are extra checks on the uninterrupted run."""
    return [
        Row(f"{case}/full", binary, (*args, *JSON), checks=checks),
        Row(f"{case}/crash", binary, (*args, "--checkpoint", "ck", *JSON),
            env={"QUICKSAND_CKPT_ABORT_AFTER": str(abort_after)}, status=42),
        Row(f"{case}/resume", binary,
            (*args, "--checkpoint", "../crash/ck", "--resume", *JSON),
            checks=(resumed(f"{case}/full/run.json", f"{case}/resume/run.json"),
                    *(identical(f"{case}/full/{csv}", f"{case}/resume/{csv}")
                      for csv in csvs))),
    ]


CONTRACTS = [
    # --threads: fig2 serial vs oversubscribed.
    Row("fig2/t1", "bench/fig2_left_concentration", ("--threads", "1", *JSON)),
    Row("fig2/t4", "bench/fig2_left_concentration", ("--threads", "4", *JSON),
        checks=(same("fig2/t1/run.json", "fig2/t4/run.json"),)),

    # Streaming feed: materialized vs 512-record batches, at t1 and t4;
    # only the reserved feed.* namespace may differ.
    Row("fig3/t1", FIG3, ("--threads", "1", *JSON)),
    Row("fig3/t4", FIG3, ("--threads", "4", *JSON),
        checks=(same("fig3/t1/run.json", "fig3/t4/run.json"),)),
    Row("fig3/batch_t1", FIG3, ("--threads", "1", "--feed-batch", "512", *JSON),
        checks=(same("fig3/t1/run.json", "fig3/batch_t1/run.json"),
                reserved("fig3/batch_t1/run.json", "feed"))),
    Row("fig3/batch_t4", FIG3, ("--threads", "4", "--feed-batch", "512", *JSON),
        checks=(same("fig3/batch_t1/run.json", "fig3/batch_t4/run.json"),)),

    # Wire format: fig3 self-checks parsed == generated (exit 1 otherwise);
    # text vs qmrt and qmrt at t1 vs t4 differ only in qmrt.*.
    Row("fig3/qmrt_t1", FIG3, ("--threads", "1", "--format", "qmrt", *JSON),
        checks=(same("fig3/t1/run.json", "fig3/qmrt_t1/run.json"),
                reserved("fig3/qmrt_t1/run.json", "qmrt"))),
    Row("fig3/qmrt_t4", FIG3, ("--threads", "4", "--format", "qmrt", *JSON),
        checks=(same("fig3/qmrt_t1/run.json", "fig3/qmrt_t4/run.json"),)),

    # --profile: stage counts are deterministic across thread counts.
    Row("fig3/profile_t1", FIG3, ("--profile", "--threads", "1", *JSON),
        checks=(holds("fig3/profile_t1/run.json", profile_stages),
                reserved("fig3/profile_t1/run.json", "prof"))),
    Row("fig3/profile_t4", FIG3, ("--profile", "--threads", "4", *JSON),
        checks=(same("fig3/profile_t1/run.json", "fig3/profile_t4/run.json"),)),

    # The binary self-checks peak resident updates <= batch size.
    Row("micro_substrates", "bench/micro_substrates",
        ("--benchmark_min_time=0.01", *JSON),
        checks=(valid("micro_substrates/run.json"),)),

    # Faults: rate 0 matches an injector-free pipeline (exit 1 otherwise),
    # deterministic across threads while injecting; under qmrt the wire
    # decodes and re-serializes byte-identical to the text archive.
    Row("fault_sweep/t1", "bench/fault_sweep", ("--threads", "1", *JSON)),
    Row("fault_sweep/t4", "bench/fault_sweep", ("--threads", "4", *JSON),
        checks=(same("fault_sweep/t1/run.json", "fault_sweep/t4/run.json"),)),
    Row("fault_sweep/qmrt", "bench/fault_sweep", ("--format", "qmrt", *JSON),
        checks=(valid("fault_sweep/qmrt/run.json"),)),

    # File-backed qmrt decode (mmap) vs text; the binary self-checks the
    # count-exact round trip and bounded residency.
    Row("scale_feed/qmrt", "bench/scale_feed", ("--format", "qmrt", *JSON)),
    Row("scale_feed/text", "bench/scale_feed", ("--format", "text", *JSON),
        checks=(same("scale_feed/qmrt/run.json", "scale_feed/text/run.json"),)),

    # Checkpointed sweeps: kill mid-sweep, resume, byte-identical output.
    *(row for bench, csv, abort_after in (
          ("sec33_asymmetric_gain", "sec33_deanon.csv", 7),
          ("sec2_longterm_guards", "sec2_longterm.csv", 2))
      for threads in ("1", "4")
      for row in kill_resume(f"resume/{bench}/t{threads}", f"bench/{bench}",
                             ("--threads", threads), abort_after, (csv,))),

    # Population engine: kill mid-population (after 5 of 8 shards) and
    # resume at t1 and t4; the uninterrupted t4 run equals the t1 run.
    *kill_resume("population/t1", "bench/population_scale",
                 (*POPULATION_ARGS, "--threads", "1"), 5, POPULATION_CSVS),
    *kill_resume("population/t4", "bench/population_scale",
                 (*POPULATION_ARGS, "--threads", "4"), 5, POPULATION_CSVS,
                 checks=(same("population/t1/full/run.json",
                              "population/t4/full/run.json"),
                         *(identical(f"population/t1/full/{csv}",
                                     f"population/t4/full/{csv}")
                           for csv in POPULATION_CSVS))),

    # quicksandd: the rate-0 replay self-checks daemon == batch (exit 1
    # otherwise); a faulted run SIGKILLed a few steps after its 3rd
    # snapshot and resumed emits the uninterrupted run's alert dump.
    Row("daemon/equiv", DAEMON, ("--rate", "0", "--days", "7", *JSON)),
    Row("daemon/full", DAEMON, (*DAEMON_ARGS, "--alerts-out", "alerts.txt"),
        checks=(exists("daemon/full/alerts.txt"),)),
    Row("daemon/crash", DAEMON, (*DAEMON_ARGS, "--checkpoint", "ck.snap"),
        env={"QUICKSAND_DAEMON_KILL_AFTER": "3"}, status=SIGKILLED,
        checks=(exists("daemon/crash/ck.snap"),)),
    Row("daemon/resume", DAEMON,
        (*DAEMON_ARGS, "--checkpoint", "../crash/ck.snap", "--resume",
         "--alerts-out", "alerts.txt", *JSON),
        checks=(log_has("restored from snapshot"),
                identical("daemon/full/alerts.txt", "daemon/resume/alerts.txt"))),

    # xmat, leg A: every cell on seed 2 crashes on every attempt, so those
    # cells quarantine and surface as gaps; the runner still exits 0.
    Row("matrix/a", XMAT, xmat("matrix.conf", "run"),
        env={"QUICKSAND_MATRIX_DEMO_ABORT_SEED": "2"},
        checks=(holds("matrix/a/run/matrix.json", seed_2_quarantined),)),
    # Leg B: every cell crashes once, then is retried to a merge
    # byte-identical to a chaos-free run.
    Row("matrix/b_clean", XMAT, xmat("matrix.conf", "run")),
    Row("matrix/b_flaky", XMAT, xmat("matrix.conf", "run"),
        env={"QUICKSAND_MATRIX_DEMO_FLAKY_DIR": "{out}/matrix/b_flaky"},
        checks=(holds("matrix/b_flaky/run/matrix.json", no_gaps),
                log_has("retries"),
                identical("matrix/b_clean/run/matrix.json",
                          "matrix/b_flaky/run/matrix.json"))),
    # Leg C: the runner SIGKILLed after 5 of 12 cells leaves no merge;
    # --resume replays the journal to a byte-identical matrix.json.
    *(row for threads in ("1", "4") for row in (
        Row(f"matrix/c_t{threads}/full", XMAT,
            xmat(f"matrix_t{threads}.conf", "run", "--jobs", threads)),
        Row(f"matrix/c_t{threads}/crash", XMAT,
            xmat(f"matrix_t{threads}.conf", "run", "--jobs", threads),
            env={"QUICKSAND_XMAT_KILL_AFTER": "5"}, status=SIGKILLED,
            checks=(absent(f"matrix/c_t{threads}/crash/run/matrix.json"),)),
        Row(f"matrix/c_t{threads}/resume", XMAT,
            xmat(f"matrix_t{threads}.conf", "../crash/run", "--resume",
                 "--jobs", threads),
            checks=(log_has("resumed from journal"),
                    holds(f"matrix/c_t{threads}/crash/run/matrix.json", no_gaps),
                    identical(f"matrix/c_t{threads}/full/run/matrix.json",
                              f"matrix/c_t{threads}/crash/run/matrix.json"))),
    )),
]


# ---- the runner -------------------------------------------------------------

def run(row, build, out):
    """Run one row in OUT_DIR/<name>; raise if its status or a check fails."""
    row_dir = out / row.name
    shutil.rmtree(row_dir, ignore_errors=True)
    row_dir.mkdir(parents=True)
    expand = lambda s: s.format(out=out, build=build)  # noqa: E731
    env = {**os.environ, **{k: expand(v) for k, v in row.env.items()}}
    with open(row_dir / "log", "wb") as log:
        status = subprocess.run(
            [str(build / row.binary), *map(expand, row.argv)], cwd=row_dir,
            env=env, stdout=log, stderr=subprocess.STDOUT).returncode
    if status != row.status:
        fail(f"exit status {status}, expected {row.status}")
    for check in row.checks:
        check(out, row_dir)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
    start = time.monotonic()
    for row in CONTRACTS:
        print(f"==> {row.name}", flush=True)
        row_start = time.monotonic()
        try:
            run(row, build, out)
        except Exception as exc:  # any error fails closed, not just CheckError
            print(f"FAIL: {row.name}: {exc}", file=sys.stderr)
            log = out / row.name / "log"
            if log.is_file():
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
            return 1
        print(f"    ok in {time.monotonic() - row_start:.1f} s", flush=True)
    print(f"OK: {len(CONTRACTS)} contract rows passed in "
          f"{time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
