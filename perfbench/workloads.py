"""The benchmark's three workloads: set-up, one op, and the output checks.

An op is one complete, output-checked unit of work; it raises when the
program fails or an output is wrong.  Library calls go through the module
attributes (``configuration.ingest_rays``, not an imported name) so that the
wrappers of the traced run see them.

- report165: a cold ``ksembed report`` child process with default flags, the
  paper's one-command reproduction.  Every layer runs once at published scale.
- stress741: ingest, phase search, verify, export and colourability on the
  741-ray configuration, in this process.  The all-pairs scans dominate and
  the solver is negligible.
- solve165: colourability, maximization, replay, bounds and the certificate
  text on the published configuration, in this process.  The solver
  dominates and no op scans all pairs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout

from ksembed import cli, configuration, realify, valuations

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
SRC = os.path.join(os.path.dirname(HERE), "src")
# scratch space, relative to the checkout root (the working directory)
WORK = ".bench_work"
CHILD_TIMEOUT_S = 60

PAPER_CHECKS = ("rays165", "contexts130", "uncolorable", "best128")
# the six units of Z[w], +-1, +-w, +-w^2, as (a, b) meaning a + b*w
UNITS = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def read_data(name: str) -> str:
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


def seeded_ray_text(canonical: str, seed: int) -> str:
    """Shuffle the ray lines and multiply each ray by a random unit.

    Every such file describes the same configuration, so ingesting it must
    give back exactly ``canonical``: the program never sees one fixed byte
    string, and canonicalization is exercised on every load.
    """
    rng = random.Random(seed)
    rows = [line.split() for line in canonical.splitlines()
            if line and not line.startswith("#")]
    rng.shuffle(rows)
    lines = [f"# {len(rows)} rays, benchmark seed {seed}"]
    for row in rows:
        c, d = rng.choice(UNITS)
        coords = []
        for field in row:
            a, b = map(int, field.split(","))
            # (a + b*w)(c + d*w) with w^2 = -1 - w
            coords.append(f"{a * c - b * d},{a * d + b * c - b * d}")
        lines.append(" ".join(coords))
    return "\n".join(lines) + "\n"


def load_configuration(text: str, canonical: str, counts: tuple[int, int, int]):
    """Ingest a seeded ray file; check its (rays, edges, contexts) and that it
    is the configuration of the canonical file."""
    cfg = configuration.ingest_rays(text)
    got = (cfg.n_rays, len(cfg.edges), len(cfg.contexts))
    check(got == counts, f"configuration has {got} (rays, edges, contexts), expected {counts}")
    check(configuration.export_rays(cfg) == canonical,
          "ingested configuration differs from the canonical ray file")
    return cfg


def check_realified_rows(cfg, rows) -> None:
    """The exported R^6 vectors keep each ray's squared norm and keep every
    orthogonal pair orthogonal."""
    check(len(rows) == cfg.n_rays, f"{len(rows)} exported rows for {cfg.n_rays} rays")
    vecs = [[float(x) for x in row] for row in rows]
    for ray, v in zip(cfg.rays, vecs):
        check(len(v) == 6 and math.isclose(sum(x * x for x in v), ray.sq_norm, rel_tol=1e-12),
              f"exported ray {ray.id} does not keep its squared norm")
    for i, j in cfg.edges:
        dot = sum(x * y for x, y in zip(vecs[i], vecs[j]))
        scale = math.sqrt(cfg.rays[i].sq_norm * cfg.rays[j].sq_norm)
        check(abs(dot) <= 1e-12 * scale, f"exported rays {i}, {j} are no longer orthogonal")


def run_child(argv: list[str], stdout_path: str, stderr_path: str) -> tuple[int, float]:
    """Run one child process to completion; return its exit code and its own
    peak resident memory in MiB."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        # wait4 rather than wait: it also returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


class Workload:
    name = ""
    spawns_child = False

    def __init__(self, seed: int):
        self.seed = seed
        self._first = None

    def setup(self) -> None:
        """Everything before the first timed op."""

    def prepare(self) -> None:
        """Untimed work before each op."""

    def op(self) -> None:
        """One output-checked op, as a user runs it."""
        raise NotImplementedError

    def in_process_op(self) -> None:
        """The same work as ``op``, run in this process (for tracing)."""
        self.op()

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def same_as_first(self, outputs) -> None:
        """Check that this op's outputs equal the first op's of the run."""
        d = hashlib.sha256(repr(outputs).encode()).hexdigest()
        if self._first is None:
            self._first = d
        check(d == self._first, "outputs differ from the first op's")


class Report165(Workload):
    name = "report165"
    spawns_child = True

    def __init__(self, seed: int):
        # the input is fixed by the paper: the seed is recorded, not used
        super().__init__(seed)
        self.out_dir = os.path.join(WORK, "report165")
        self.child_rss_mb: list[float] = []

    def setup(self) -> None:
        os.makedirs(WORK, exist_ok=True)

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self) -> None:
        stdout_path = os.path.join(WORK, "report165.stdout")
        code, rss = run_child(
            [sys.executable, "-m", "ksembed.cli", "report", "--out-dir", self.out_dir],
            stdout_path, os.path.join(WORK, "report165.stderr"))
        self.child_rss_mb.append(rss)
        check(code == cli.EXIT_OK, f"report exited with {code}")
        with open(stdout_path) as fh:
            self.check_report(fh.read())

    def in_process_op(self) -> None:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["report", "--out-dir", self.out_dir])
        check(code == cli.EXIT_OK, f"report returned {code}")
        self.check_report(out.getvalue())

    def check_report(self, stdout: str) -> None:
        report = json.loads(stdout)
        check(report["status"] == "ok", f"report status {report['status']!r}")
        checks = {c["name"]: c["ok"] for c in report["checks"]}
        check(all(checks.get(name) for name in PAPER_CHECKS) and all(checks.values()),
              f"report checks {checks}")
        results = report["results"]
        generated = results["generate"]
        counts = (generated["rays"], generated["edges"], generated["contexts"])
        check(counts == (165, 390, 130), f"generated (rays, edges, contexts) {counts}")
        realified = results["realify"]
        check((realified["pairs_checked"], realified["spurious"], realified["missing"])
              == (165 * 164 // 2, 0, 0), f"realify results {realified}")
        certified = results["certify"]
        check(certified["colorable"] is False, "165-ray configuration reported colourable")
        check(certified["best"] == 128 and certified["witness_covered"] == 128,
              f"best {certified['best']}, witness covers {certified['witness_covered']}")
        check(certified["bounds"] == [0, 128], f"bounds {certified['bounds']}")
        check(certified["refuted_subproblems"] == 131,
              f"{certified['refuted_subproblems']} refuted subproblems")
        with open(os.path.join(self.out_dir, "certificate.txt")) as fh:
            refuted = sum(line.startswith("refuted ") for line in fh)
        check(refuted == 131, f"{refuted} refuted lines in certificate.txt")
        # byte-identical stdout, whether the report ran as a child or in-process
        self.same_as_first(stdout)

    def peak_rss_mb(self) -> float:
        return sorted(self.child_rss_mb)[len(self.child_rss_mb) // 2]


class Stress741(Workload):
    name = "stress741"

    def setup(self) -> None:
        self.canonical = read_data("rays741.txt")
        self.text = seeded_ray_text(self.canonical, self.seed)

    def op(self) -> None:
        cfg = load_configuration(self.text, self.canonical, (741, 1974, 490))
        pa = realify.rational_phase_search(cfg, 1009)
        fr = realify.verify_faithful(cfg, pa)
        check(fr.faithful and not fr.spurious and not fr.missing,
              f"not faithful: {len(fr.spurious)} spurious, {len(fr.missing)} missing")
        check(fr.pairs_checked == 741 * 740 // 2, f"{fr.pairs_checked} pairs checked")
        rows = realify.phase_apply_export(cfg, pa, 20)
        check_realified_rows(cfg, rows)
        color = valuations.ks_colorable(cfg)
        check(not color.satisfiable, "741-ray configuration reported colourable")
        self.same_as_first((pa.n, rows, color.nodes, color.propagations))


class Solve165(Workload):
    name = "solve165"

    def setup(self) -> None:
        canonical = read_data("rays165.txt")
        self.cfg = load_configuration(seeded_ray_text(canonical, self.seed), canonical,
                                      (165, 390, 130))

    def op(self) -> None:
        cfg = self.cfg
        color = valuations.ks_colorable(cfg)
        check(not color.satisfiable, "165-ray configuration reported colourable")
        opt = valuations.maximize_covered_contexts(cfg)
        check(opt.best == 128, f"best {opt.best}")
        check(valuations.covered_contexts(cfg, opt.witness) == 128, "witness does not cover 128")
        check(len(opt.certificate) == 131, f"{len(opt.certificate)} refutations")
        check(valuations.replay_certificate(cfg, opt), "certificate replay failed")
        bounds = valuations.global_sum_bounds(cfg, opt)
        check(bounds == (0, 128), f"bounds {bounds}")
        text = valuations.certificate_to_text(cfg, opt)
        refuted = sum(line.startswith("refuted ") for line in text.splitlines())
        check(refuted == 131, f"{refuted} refuted lines in the certificate")
        # node and propagation counts, and the certificate itself, repeat exactly
        self.same_as_first((color.nodes, color.propagations, opt.stats, text))


WORKLOADS = {w.name: w for w in (Report165, Stress741, Solve165)}
