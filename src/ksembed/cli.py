"""Command-line entry point: generate, realify, certify, report.

Each command emits a deterministic JSON run report on stdout (timings go to
stderr so two runs are byte-identical) and mirrors its status in the exit
code: 0 ok, 2 discrepancy (a paper-anchored expectation failed), 1 error,
a usage error included.

The paper-anchored expectations are named checks:

  rays165       generated configuration has 165 rays
  contexts130   ... and 130 contexts
  uncolorable   colorability search returns UNSAT
  best128       maximum number of covered contexts is 128

generate always closes the MUB seed, so it always runs the first two, and
report all four.  certify runs uncolorable, and best128 in --mode all,
exactly on a 165-ray configuration; its JSON holds colorable and best for
any input.  realify runs no checks, and no command takes a flag to switch
a check.

report takes only --out-dir and runs realify at REALIFY_DEFAULTS; other
phase settings are run as generate, realify and certify one by one.
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

#: realify's option defaults, which report runs at
REALIFY_DEFAULTS = {"K": None, "strategy": "distinct", "seed": 0, "precision": 20}

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

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "status": self.status,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @property
    def exit_code(self) -> int:
        return {"ok": EXIT_OK, "discrepancy": EXIT_DISCREPANCY}.get(self.status, EXIT_ERROR)


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


# --- commands: each reads its options from report.inputs, works on an
# in-memory configuration and records results, checks and timings in report;
# report runs all three on the configuration generate builds.


def cmd_generate(report: RunReport) -> cfgmod.Configuration:
    t0 = time.perf_counter()
    cfg = cfgmod.closure_generate(cfgmod.mub_seed())
    t0 = _stage(report, "closure", t0)
    _write_atomic(report.inputs["out"], cfgmod.export_rays(cfg))
    _stage(report, "export", t0)
    report.results = {
        "rays": cfg.n_rays,
        "edges": len(cfg.edges),
        "contexts": len(cfg.contexts),
    }
    report.check("rays165", cfg.n_rays == 165, f"rays={cfg.n_rays}")
    report.check("contexts130", len(cfg.contexts) == 130, f"contexts={len(cfg.contexts)}")
    return cfg


def cmd_realify(report: RunReport, cfg: cfgmod.Configuration) -> None:
    opts = report.inputs
    t0 = time.perf_counter()
    pa = remod.rational_phase_search(cfg, opts["K"], opts["strategy"], rng_seed=opts["seed"])
    opts["K"] = pa.K  # with no --K, the default for this ray count
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


def cmd_certify(report: RunReport, cfg: cfgmod.Configuration) -> None:
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

    report.results["colorable"] = color.satisfiable
    report.results["color_nodes"] = color.nodes
    if color.witness is not None:
        report.results["color_witness"] = color.witness.ones()
    if paper_scale:
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
        if paper_scale:
            report.check("best128", opt.best == 128, f"best={opt.best}")


def cmd_report(args) -> RunReport:
    """Full reproduction: generate, then realify, then certify (--mode all),
    all on the generated configuration; the ray file is written, not read."""
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {
        name: os.path.join(args.out_dir, f"{name}.txt")
        for name in ("rays", "phases", "vectors", "certificate")
    }
    gen = RunReport(command="generate", inputs={"out": paths["rays"]})
    cfg = cmd_generate(gen)
    rea = RunReport(command="realify", inputs=dict(
        REALIFY_DEFAULTS, out_phases=paths["phases"], out_vectors=paths["vectors"]))
    cmd_realify(rea, cfg)
    cer = RunReport(command="certify", inputs=dict(
        mode="all", out_certificate=paths["certificate"]))
    cmd_certify(cer, cfg)

    steps = {"generate": gen, "realify": rea, "certify": cer}
    report = RunReport(command="report", inputs={"out_dir": args.out_dir})
    report.results = {name: step.results for name, step in steps.items()}
    report.checks = [c for step in steps.values() for c in step.checks]
    report.timing = {f"{name}.{stage}": seconds for name, step in steps.items()
                     for stage, seconds in step.timing.items()}
    if any(step.status == "discrepancy" for step in steps.values()):
        report.status = "discrepancy"
    return report


# --- argument parsing -------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error, so that main reports it like any other failure,
    where argparse would print it and exit 2, the discrepancy code."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ksembed",
        description="Reconstruct, realify and certify the 165-ray qutrit "
                    "Kochen-Specker configuration with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build the configuration by closure "
                                        "and write a ray file")
    g.add_argument("--out", required=True, help="ray file to write")

    r = sub.add_parser("realify", help="search rational phases and verify the "
                                       "R^6 embedding is faithful")
    r.add_argument("--rays", required=True, help="ray file to ingest")
    r.add_argument("--K", type=int,
                   help="phase denominator, gcd(K,6)=1 (default 1009, or the "
                        "smallest valid K >= the ray count above 1009 rays)")
    r.add_argument("--strategy", choices=remod.STRATEGIES,
                   help="phase search strategy (default %(default)s)")
    r.add_argument("--seed", type=int, help="rng seed for the greedy-random strategy")
    r.add_argument("--precision", type=int,
                   help="significant digits for the vector export, "
                        f"{remod.MIN_PRECISION}..{remod.MAX_PRECISION} (default %(default)s)")
    r.set_defaults(**REALIFY_DEFAULTS)
    r.add_argument("--out-phases", default=None, help="phase file to write")
    r.add_argument("--out-vectors", default=None, help="vector export to write")

    c = sub.add_parser("certify", help="run colorability and/or maximization "
                                       "with replayable certificates")
    c.add_argument("--rays", required=True, help="ray file to ingest")
    c.add_argument("--mode", choices=("color", "all"), default="all")
    c.add_argument("--out-certificate", default=None, help="certificate file to write")

    a = sub.add_parser("report", help="full paper reproduction: generate + "
                                      "realify + certify into a directory")
    a.add_argument("--out-dir", required=True, help="directory for all artifacts")

    return parser


def main(argv: list[str] | None = None) -> int:
    # a recognised subcommand is set here before its own options are parsed
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, args)
        if args.command == "report":
            report = cmd_report(args)
        else:
            report = RunReport(command=args.command, inputs={
                key: value for key, value in vars(args).items() if key != "command"})
            if args.command == "generate":
                cmd_generate(report)
            elif args.command == "realify":
                # an invalid --K or --precision is refused before the ray file is read
                if args.K is not None:
                    remod.check_k(args.K)
                remod.check_precision(args.precision)
                cmd_realify(report, _load_configuration(report, args.rays))
            else:
                # a certificate asked of --mode color is refused before the ray file is read
                if args.mode == "color" and args.out_certificate:
                    raise ValueError("--out-certificate needs --mode all: "
                                     "--mode color writes no certificate")
                cmd_certify(report, _load_configuration(report, args.rays))
    except Exception as exc:  # deliberately broad: no failure escapes as a traceback
        error = RunReport(command=args.command, inputs={}, status="error",
                          results={"error": f"{type(exc).__name__}: {exc}"})
        print(error.to_json(), file=sys.stdout)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(report.to_json())
    for stage, seconds in report.timing.items():
        print(f"[{report.command}] {stage}: {seconds:.3f}s", file=sys.stderr)
    print(f"[{report.command}] status: {report.status}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
