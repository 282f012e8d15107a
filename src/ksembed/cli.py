"""Command-line entry point: generate, realify, certify, report.

Each command emits a deterministic JSON run report on stdout (timings go to
stderr so two runs are byte-identical) and mirrors its status in the exit
code: 0 ok, 2 discrepancy (a paper-anchored expectation failed), 1 error.

The paper-anchored expectations are named checks, individually switchable
with --expect/--no-expect so the tool stays useful on other configurations:

  rays165       generated/ingested configuration has 165 rays
  contexts130   ... and 130 contexts
  uncolorable   colorability search returns UNSAT
  best128       maximum number of covered contexts is 128

By default a check runs only at the paper's scale (generate from the MUB
seed, certify on a 165-ray configuration).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import configuration as cfgmod
from . import realify as remod
from . import valuations as valmod

KNOWN_CHECKS = ("rays165", "contexts130", "uncolorable", "best128")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISCREPANCY = 2


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    status: str = "ok"

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            self.status = "discrepancy"

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "status": self.status,
        }
        if include_timing:
            payload["timing"] = self.timing
        return json.dumps(payload, indent=2, sort_keys=True)

    @property
    def exit_code(self) -> int:
        return {"ok": EXIT_OK, "discrepancy": EXIT_DISCREPANCY}.get(self.status, EXIT_ERROR)


class _Expectations:
    """Resolve which named checks are active for this run."""

    def __init__(self, forced_on: list[str], forced_off: list[str]):
        for name in forced_on + forced_off:
            if name not in KNOWN_CHECKS:
                raise ValueError(f"unknown check {name!r}; known: {KNOWN_CHECKS}")
        self.on = set(forced_on)
        self.off = set(forced_off)

    def active(self, name: str, default: bool) -> bool:
        if name in self.off:
            return False
        if name in self.on:
            return True
        return default


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_configuration(report: RunReport, path: str) -> cfgmod.Configuration:
    t0 = time.perf_counter()
    with open(path) as fh:
        cfg = cfgmod.ingest_rays(fh.read())
    _stage(report, "ingest", t0)
    return cfg


def _stage(report: RunReport, name: str, t0: float) -> float:
    t1 = time.perf_counter()
    report.timing[name] = round(t1 - t0, 6)
    return t1


# --- pipeline steps: each reads its options from report.inputs, works on an
# in-memory configuration and records results, checks and timings in report.


def _generate(report: RunReport, expects: _Expectations) -> cfgmod.Configuration:
    seed_choice = report.inputs["seed_choice"]
    t0 = time.perf_counter()
    if seed_choice == "mub":
        seed = cfgmod.mub_seed()
    else:
        seed = cfgmod.mub_bases()[0]
    cfg = cfgmod.closure_generate(seed)
    t0 = _stage(report, "closure", t0)
    _write_atomic(report.inputs["out"], cfgmod.export_rays(cfg))
    _stage(report, "export", t0)
    report.results = {
        "rays": cfg.n_rays,
        "edges": len(cfg.edges),
        "contexts": len(cfg.contexts),
    }
    paper_scale = seed_choice == "mub"
    if expects.active("rays165", paper_scale):
        report.check("rays165", cfg.n_rays == 165, f"rays={cfg.n_rays}")
    if expects.active("contexts130", paper_scale):
        report.check("contexts130", len(cfg.contexts) == 130,
                     f"contexts={len(cfg.contexts)}")
    return cfg


def _realify(report: RunReport, cfg: cfgmod.Configuration) -> None:
    opts = report.inputs
    t0 = time.perf_counter()
    pa = remod.rational_phase_search(cfg, opts["K"], opts["strategy"], rng_seed=opts["seed"])
    t0 = _stage(report, "search", t0)
    fr = remod.verify_faithful(cfg, pa)
    t0 = _stage(report, "verify", t0)
    if opts["out_phases"]:
        _write_atomic(opts["out_phases"], remod.save_phases(pa))
    if opts["out_vectors"]:
        rows = remod.phase_apply_export(cfg, pa, opts["precision"])
        _write_atomic(opts["out_vectors"], remod.save_vectors(rows, opts["precision"]))
    _stage(report, "export", t0)
    report.results = {
        "K": pa.K,
        "strategy": opts["strategy"],
        "pairs_checked": fr.pairs_checked,
        "spurious": len(fr.spurious),
        "missing": len(fr.missing),
    }
    if not fr.faithful:
        report.status = "discrepancy"


def _certify(report: RunReport, cfg: cfgmod.Configuration, expects: _Expectations) -> None:
    mode = report.inputs["mode"]
    paper_scale = cfg.n_rays == 165
    t0 = time.perf_counter()
    opt = None
    if mode == "color":
        color = valmod.ks_colorable(cfg)
        t0 = _stage(report, "color", t0)
    else:
        # maximization's budget-0 step is the colorability search
        opt = valmod.maximize_covered_contexts(cfg)
        color = opt.colorability
        t0 = _stage(report, "maximize", t0)

    if mode in ("color", "all"):
        report.results["colorable"] = color.satisfiable
        report.results["color_nodes"] = color.nodes
        if color.witness is not None:
            report.results["color_witness"] = color.witness.ones()
        if expects.active("uncolorable", paper_scale):
            report.check("uncolorable", not color.satisfiable,
                         f"colorable={color.satisfiable}")

    if opt is not None:
        if not valmod.replay_certificate(cfg, opt):
            raise valmod.InconsistentCertificates("certificate replay failed")
        t0 = _stage(report, "replay", t0)
        lo, hi = valmod.global_sum_bounds(cfg, opt)
        report.results["best"] = opt.best
        report.results["bounds"] = [lo, hi]
        report.results["refuted_subproblems"] = len(opt.certificate)
        report.results["witness_covered"] = valmod.covered_contexts(cfg, opt.witness)
        if report.inputs["out_certificate"]:
            _write_atomic(report.inputs["out_certificate"],
                          valmod.certificate_to_text(cfg, opt))
        _stage(report, "certificate", t0)
        if expects.active("best128", paper_scale):
            report.check("best128", opt.best == 128, f"best={opt.best}")


# --- commands ---------------------------------------------------------------


def cmd_generate(args, expects: _Expectations) -> RunReport:
    report = RunReport(command="generate",
                       inputs={"out": args.out, "seed_choice": args.seed_choice})
    _generate(report, expects)
    return report


def cmd_realify(args, expects: _Expectations) -> RunReport:
    report = RunReport(command="realify", inputs=dict(
        rays=args.rays, K=args.K, strategy=args.strategy, seed=args.seed,
        precision=args.precision, out_phases=args.out_phases, out_vectors=args.out_vectors))
    _realify(report, _load_configuration(report, args.rays))
    return report


def cmd_certify(args, expects: _Expectations) -> RunReport:
    report = RunReport(command="certify", inputs=dict(
        rays=args.rays, mode=args.mode, out_certificate=args.out_certificate))
    _certify(report, _load_configuration(report, args.rays), expects)
    return report


def cmd_report(args, expects: _Expectations) -> RunReport:
    """Full reproduction: generate, then realify, then certify (both modes),
    all on the generated configuration; the ray file is written, not read."""
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {
        name: os.path.join(args.out_dir, f"{name}.txt")
        for name in ("rays", "phases", "vectors", "certificate")
    }
    gen = RunReport(command="generate", inputs={"out": paths["rays"], "seed_choice": "mub"})
    cfg = _generate(gen, expects)
    rea = RunReport(command="realify", inputs=dict(
        K=args.K, strategy=args.strategy, seed=args.seed, precision=args.precision,
        out_phases=paths["phases"], out_vectors=paths["vectors"]))
    _realify(rea, cfg)
    cer = RunReport(command="certify", inputs=dict(
        mode="all", out_certificate=paths["certificate"]))
    _certify(cer, cfg, expects)

    steps = {"generate": gen, "realify": rea, "certify": cer}
    report = RunReport(command="report", inputs={"out_dir": args.out_dir})
    report.results = {name: step.results for name, step in steps.items()}
    report.checks = [c for step in steps.values() for c in step.checks]
    report.timing = {name: step.timing for name, step in steps.items()}
    if any(step.status == "discrepancy" for step in steps.values()):
        report.status = "discrepancy"
    return report


# --- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksembed",
        description="Reconstruct, realify and certify the 165-ray qutrit "
                    "Kochen-Specker configuration with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expect_flags(p):
        p.add_argument("--expect", action="append", default=[], metavar="CHECK",
                       help=f"force a named check on; known: {', '.join(KNOWN_CHECKS)}")
        p.add_argument("--no-expect", action="append", default=[], metavar="CHECK",
                       help="force a named check off")

    g = sub.add_parser("generate", help="build the configuration by closure "
                                        "and write a ray file")
    g.add_argument("--out", required=True, help="ray file to write")
    g.add_argument("--seed-choice", choices=("mub", "basis-only"), default="mub",
                   help="closure seed: the 12 MUB rays or just the computational basis")
    add_expect_flags(g)

    r = sub.add_parser("realify", help="search rational phases and verify the "
                                       "R^6 embedding is faithful")
    r.add_argument("--rays", required=True, help="ray file to ingest")
    r.add_argument("--K", type=int, default=1009,
                   help="phase denominator, gcd(K,6)=1 (default 1009)")
    r.add_argument("--strategy", choices=remod.STRATEGIES, default="distinct")
    r.add_argument("--seed", type=int, default=0,
                   help="rng seed for the greedy-random strategy")
    r.add_argument("--precision", type=int, default=20,
                   help="significant digits for the vector export (default 20)")
    r.add_argument("--out-phases", default=None, help="phase file to write")
    r.add_argument("--out-vectors", default=None, help="vector export to write")
    add_expect_flags(r)

    c = sub.add_parser("certify", help="run colorability and/or maximization "
                                       "with replayable certificates")
    c.add_argument("--rays", required=True, help="ray file to ingest")
    c.add_argument("--mode", choices=("color", "maximize", "all"), default="all")
    c.add_argument("--out-certificate", default=None, help="certificate file to write")
    add_expect_flags(c)

    a = sub.add_parser("report", help="full paper reproduction: generate + "
                                      "realify + certify into a directory")
    a.add_argument("--out-dir", required=True, help="directory for all artifacts")
    a.add_argument("--K", type=int, default=1009)
    a.add_argument("--strategy", choices=remod.STRATEGIES, default="distinct")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--precision", type=int, default=20)
    add_expect_flags(a)

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "realify": cmd_realify,
    "certify": cmd_certify,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        expects = _Expectations(args.expect, args.no_expect)
        report = COMMANDS[args.command](args, expects)
    except (cfgmod.ParseError, cfgmod.DivergenceGuard, cfgmod.DuplicateRay,
            cfgmod.NonTriangleClique, cfgmod.ZeroVector,
            remod.InvalidK, remod.SearchExhausted, remod.PrecisionDisagreement,
            valmod.InconsistentCertificates, valmod.SizeMismatch, valmod.EngineError,
            OSError, ValueError) as exc:
        error = RunReport(command=args.command, inputs={}, status="error",
                          results={"error": f"{type(exc).__name__}: {exc}"})
        print(error.to_json(), file=sys.stdout)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(report.to_json())
    for stage, seconds in _flatten_timing(report.timing):
        print(f"[{report.command}] {stage}: {seconds:.3f}s", file=sys.stderr)
    print(f"[{report.command}] status: {report.status}", file=sys.stderr)
    return report.exit_code


def _flatten_timing(timing: dict, prefix: str = ""):
    for key, value in timing.items():
        if isinstance(value, dict):
            yield from _flatten_timing(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


if __name__ == "__main__":
    sys.exit(main())
