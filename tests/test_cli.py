"""Command-line behavior: reports, exit codes, artifacts, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import forking, losing_fork
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksembed import cli, configuration, realify, valuations
from ksembed.cli import EXIT_DISCREPANCY, EXIT_ERROR, EXIT_OK, main
from ksembed.configuration import ingest_rays
from ksembed.exact import EisensteinInt, VecC3

# sha256 of the default `report` artifacts, and of its stdout with the output
# directory masked as "<out_dir>"
REPORT_GOLDEN = {
    "rays.txt": "63fe8f81087041d693fc20541c7ebb552746a65fff804fe7a97e2bf3f7a0d24b",
    "phases.txt": "ace916421de17653c49feb6f4c8493aca2454a9f10f533cbe2b7ed9130ce0488",
    "vectors.txt": "41672647dad440ae1c3257a25a936d12901a21ee0253718272dd32691efb511d",
    "certificate.txt": "2646f7dc232668e7ffb039ee79897ddddf5c07d777931c767e69dccae0761f84",
    "stdout": "e34530d835429ae5c517790e726928cb766bef3c1b1bc1a507e7ad420a0a50c7",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report


@pytest.fixture(scope="module")
def rays_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "rays.txt"
    code = main(["generate", "--out", str(path)])
    assert code == EXIT_OK
    return str(path)


DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
RAYS165, RAYS741 = DATA / "rays165.txt", DATA / "rays741.txt"


@st.composite
def mutated_ray_files(draw, path):
    """The ray file at ``path`` after one to three line mutations: a line
    deleted, a line duplicated, or one whitespace-separated field of a line
    replaced (or one appended) by a coordinate with a wide coefficient or by
    short text over the file's own characters."""
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "alter")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split()
            j = draw(st.integers(0, len(fields)))
            fields[j:j + 1] = [draw(st.one_of(
                st.tuples(st.integers(-10**30, 10**30), st.integers(-3, 3)).map(
                    lambda ab: f"{ab[0]},{ab[1]}"),
                st.text(alphabet="0123456789,-+# \t", max_size=8)))]
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def one_spurious_pair(cfg, pa):
    """A verify_faithful stand-in that reports the pair (0, 1) as spurious."""
    return realify.FaithfulnessReport(spurious=[(0, 1)], pairs_checked=13530)


class TestGenerate:
    def test_default_seed_reproduces_counts(self, capsys, tmp_path):
        out = tmp_path / "rays.txt"
        code, report = run(capsys, "generate", "--out", str(out))
        assert code == EXIT_OK
        assert report["status"] == "ok"
        assert report["results"] == {"rays": 165, "edges": 390, "contexts": 130}
        assert {c["name"] for c in report["checks"]} == {"rays165", "contexts130"}
        cfg = ingest_rays(out.read_text())
        assert cfg.n_rays == 165

    def test_failed_expectation_exits_2_and_keeps_the_file(self, capsys, tmp_path,
                                                          monkeypatch):
        cfg741 = ingest_rays(RAYS741.read_text())
        monkeypatch.setattr(configuration, "closure_generate", lambda seed: cfg741)
        out = tmp_path / "rays.txt"
        code, report = run(capsys, "generate", "--out", str(out))
        assert code == EXIT_DISCREPANCY
        assert report["status"] == "discrepancy"
        assert report["checks"] == [
            {"name": "rays165", "ok": False, "detail": "rays=741"},
            {"name": "contexts130", "ok": False, "detail": "contexts=490"},
        ]
        assert ingest_rays(out.read_text()).n_rays == 741

    def test_unwritable_path_leaves_no_partial_file(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "rays.txt"
        code, report = run(capsys, "generate", "--out", str(target))
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert not target.exists()
        assert not target.parent.exists()

    def test_failed_replace_removes_the_temporary_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "rays.txt"
        tmp = tmp_path / "rays.txt.tmp"
        written = []

        def failing_replace(src, dst):
            written.append(os.path.getsize(src))
            raise OSError("replace failed")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        code, report = run(capsys, "generate", "--out", str(target))
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"] == "OSError: replace failed"
        assert len(written) == 1 and written[0] > 0
        assert not target.exists() and not tmp.exists()

    def test_untyped_failure_is_a_json_status(self, capsys, tmp_path, monkeypatch):
        def broken(seed):
            raise KeyError("boom")

        monkeypatch.setattr(configuration, "closure_generate", broken)
        code = main(["generate", "--out", str(tmp_path / "rays.txt")])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("KeyError: ")
        assert captured.err == "error: 'boom'\n"


class TestUsageErrors:
    @pytest.mark.parametrize("argv, command, message", [
        (["certify", "--rays", "x", "--mode", "bogus"], "certify",
         "argument --mode: invalid choice: 'bogus'"),
        (["realify", "--rays", "x", "--K", "abc"], "realify",
         "argument --K: invalid int value: 'abc'"),
        ([], None, "the following arguments are required: command"),
        # removed options, each with an output file that must not be written
        (["generate", "--out", "{tmp}/rays.txt", "--seed-choice", "mub"], "generate",
         "unrecognized arguments: --seed-choice mub"),
        (["realify", "--rays", str(RAYS165), "--out-phases", "{tmp}/phases.txt",
          "--expect", "rays165"], "realify", "unrecognized arguments: --expect rays165"),
        (["realify", "--rays", str(RAYS165), "--out-phases", "{tmp}/phases.txt",
          "--no-expect", "rays165"], "realify",
         "unrecognized arguments: --no-expect rays165"),
        (["certify", "--rays", str(RAYS165), "--mode", "maximize",
          "--out-certificate", "{tmp}/certificate.txt"], "certify",
         "argument --mode: invalid choice: 'maximize'"),
        (["generate", "--out", "{tmp}/rays.txt", "--expect", "rays165"], "generate",
         "unrecognized arguments: --expect rays165"),
        (["generate", "--out", "{tmp}/rays.txt", "--no-expect", "contexts130"], "generate",
         "unrecognized arguments: --no-expect contexts130"),
        (["report", "--out-dir", "{tmp}/rep", "--expect", "best128"], "report",
         "unrecognized arguments: --expect best128"),
        (["report", "--out-dir", "{tmp}/rep", "--no-expect", "uncolorable"], "report",
         "unrecognized arguments: --no-expect uncolorable"),
        (["certify", "--rays", str(RAYS165), "--mode", "all",
          "--out-certificate", "{tmp}/certificate.txt", "--expect", "uncolorable"], "certify",
         "unrecognized arguments: --expect uncolorable"),
        (["certify", "--rays", str(RAYS165), "--mode", "all",
          "--out-certificate", "{tmp}/certificate.txt", "--no-expect", "best128"], "certify",
         "unrecognized arguments: --no-expect best128"),
        (["report", "--out-dir", "{tmp}/rep", "--K", "5"], "report",
         "unrecognized arguments: --K 5"),
        (["report", "--out-dir", "{tmp}/rep", "--strategy", "backtracking"], "report",
         "unrecognized arguments: --strategy backtracking"),
        (["report", "--out-dir", "{tmp}/rep", "--seed", "1"], "report",
         "unrecognized arguments: --seed 1"),
        (["report", "--out-dir", "{tmp}/rep", "--precision", "40"], "report",
         "unrecognized arguments: --precision 40"),
    ], ids=["invalid-choice", "invalid-int", "missing-subcommand", "generate-seed-choice",
            "realify-expect", "realify-no-expect", "certify-maximize", "generate-expect",
            "generate-no-expect", "report-expect", "report-no-expect", "certify-expect",
            "certify-no-expect", "report-K",
            "report-strategy", "report-seed", "report-precision"])
    def test_usage_error_is_a_json_error(self, capsys, tmp_path, argv, command, message):
        # not argparse's exit 2, which is the discrepancy code
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == EXIT_ERROR
        assert report["status"] == "error" and report["command"] == command
        assert report["results"]["error"].startswith(f"ArgumentError: {message}")
        assert captured.err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: ksembed" in capsys.readouterr().out


STEPS = ("cmd_generate", "cmd_realify", "cmd_certify")


class TestCommands:
    @pytest.mark.parametrize("argv, inputs", [
        (["generate", "--out", "{tmp}/rays.txt"], {"out": "{tmp}/rays.txt"}),
        (["realify", "--rays", "{rays}"],
         {"rays": "{rays}", "K": 1009, "strategy": "distinct", "seed": 0, "precision": 20,
          "out_phases": None, "out_vectors": None}),
        (["realify", "--rays", "{rays}", "--K", "1013", "--strategy", "greedy-random",
          "--seed", "3", "--precision", "15", "--out-phases", "{tmp}/phases.txt"],
         {"rays": "{rays}", "K": 1013, "strategy": "greedy-random", "seed": 3,
          "precision": 15, "out_phases": "{tmp}/phases.txt", "out_vectors": None}),
        (["certify", "--rays", "{rays}", "--mode", "color"],
         {"rays": "{rays}", "mode": "color", "out_certificate": None}),
    ], ids=["generate", "realify-default", "realify-flags", "certify"])
    def test_inputs_are_the_parsed_options(self, capsys, rays_file, tmp_path, argv, inputs):
        def fill(value):
            return value.format(tmp=tmp_path, rays=rays_file) if isinstance(value, str) else value

        code, report = run(capsys, *map(fill, argv))
        assert code == EXIT_OK
        assert report["inputs"] == {key: fill(value) for key, value in inputs.items()}

    @pytest.mark.parametrize("argv, called", [
        (["report", "--out-dir", "{tmp}/repro"], STEPS),
        (["generate", "--out", "{tmp}/rays.txt"], ("cmd_generate",)),
        (["realify", "--rays", "{rays}"], ("cmd_realify",)),
        (["certify", "--rays", "{rays}", "--mode", "color"], ("cmd_certify",)),
    ], ids=["report", "generate", "realify", "certify"])
    def test_each_step_runs_once_through_its_module_name(self, capsys, rays_file, tmp_path,
                                                        monkeypatch, argv, called):
        # wrapped at the module attribute, as perfbench/tracing.py wraps them
        calls = []
        for name in STEPS:
            def wrapper(*args, _name=name, _step=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _step(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        code = main([arg.format(tmp=tmp_path, rays=rays_file) for arg in argv])
        capsys.readouterr()
        assert code == EXIT_OK
        assert calls == list(called)


class TestRealify:
    def test_default_run(self, capsys, rays_file, tmp_path):
        phases = tmp_path / "phases.txt"
        vectors = tmp_path / "vectors.txt"
        code, report = run(capsys, "realify", "--rays", rays_file,
                           "--out-phases", str(phases),
                           "--out-vectors", str(vectors))
        assert code == EXIT_OK
        assert report["results"]["pairs_checked"] == 13530
        assert report["results"]["spurious"] == 0
        assert report["results"]["missing"] == 0
        assert phases.read_text().startswith("K 1009\n")
        assert vectors.read_text().startswith("# precision=20\n")
        # no --K: the default for 165 rays, resolved in the JSON
        assert report["inputs"]["K"] == report["results"]["K"] == 1009

    def test_default_k_follows_ray_count(self, capsys, rays_file, tmp_path, monkeypatch):
        # the CLI asks realify.default_k for the ray count it read
        asked = []

        def default_k(n_rays):
            asked.append(n_rays)
            return 1013

        monkeypatch.setattr(realify, "default_k", default_k)
        phases = tmp_path / "phases.txt"
        code, report = run(capsys, "realify", "--rays", rays_file,
                           "--out-phases", str(phases))
        assert code == EXIT_OK
        assert asked == [165]
        assert report["inputs"]["K"] == report["results"]["K"] == 1013
        assert phases.read_text().startswith("K 1013\n")

    def test_reports_byte_identical_across_runs(self, capsys, rays_file):
        code1 = main(["realify", "--rays", rays_file])
        out1 = capsys.readouterr().out
        code2 = main(["realify", "--rays", rays_file])
        out2 = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_invalid_k(self, capsys, rays_file):
        code, report = run(capsys, "realify", "--rays", rays_file, "--K", "9")
        assert code == EXIT_ERROR
        assert "InvalidK" in report["results"]["error"]

    def test_search_exhausted_records_k(self, capsys, rays_file):
        code, report = run(capsys, "realify", "--rays", rays_file, "--K", "7")
        assert code == EXIT_ERROR
        assert "SearchExhausted" in report["results"]["error"]
        assert "7" in report["results"]["error"]

    def test_missing_ray_file(self, capsys):
        code, report = run(capsys, "realify", "--rays", "/no/such/file")
        assert code == EXIT_ERROR

    def test_unfaithful_result_is_a_discrepancy(self, capsys, rays_file, monkeypatch):
        monkeypatch.setattr(realify, "verify_faithful", one_spurious_pair)
        code, report = run(capsys, "realify", "--rays", rays_file)
        assert code == EXIT_DISCREPANCY
        assert report["status"] == "discrepancy"
        assert (report["results"]["spurious"], report["results"]["missing"]) == (1, 0)

    @pytest.mark.parametrize("out_vectors", [True, False])
    def test_low_precision_refused_before_any_file(self, capsys, rays_file, tmp_path,
                                                   out_vectors):
        phases, vectors = tmp_path / "phases.txt", tmp_path / "vectors.txt"
        argv = ["realify", "--rays", rays_file, "--precision", "3",
                "--out-phases", str(phases)]
        if out_vectors:
            argv += ["--out-vectors", str(vectors)]
        code, report = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert "precision must be >= 15" in report["results"]["error"]
        assert not phases.exists() and not vectors.exists()

    @pytest.mark.parametrize("out_vectors", [True, False])
    def test_precision_above_maximum_refused_before_any_file(self, capsys, rays_file,
                                                              tmp_path, out_vectors):
        phases, vectors = tmp_path / "phases.txt", tmp_path / "vectors.txt"
        argv = ["realify", "--rays", rays_file, "--precision", "1000000",
                "--out-phases", str(phases)]
        if out_vectors:
            argv += ["--out-vectors", str(vectors)]
        code, report = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert "and <= 1000 significant digits" in report["results"]["error"]
        assert not phases.exists() and not vectors.exists()

    def test_backtracking_strategy(self, capsys, rays_file):
        code, report = run(capsys, "realify", "--rays", rays_file,
                           "--strategy", "backtracking")
        assert code == EXIT_OK
        assert report["results"]["spurious"] == 0


class TestCertify:
    def test_color_mode_full_configuration(self, capsys, rays_file):
        code, report = run(capsys, "certify", "--rays", rays_file,
                           "--mode", "color")
        assert code == EXIT_OK
        assert report["results"]["colorable"] is False
        assert any(c["name"] == "uncolorable" and c["ok"]
                   for c in report["checks"])

    def test_maximize_mode_full_configuration(self, capsys, rays_file, tmp_path):
        cert = tmp_path / "certificate.txt"
        code, report = run(capsys, "certify", "--rays", rays_file,
                           "--mode", "all", "--out-certificate", str(cert))
        assert code == EXIT_OK
        assert report["results"]["best"] == 128
        assert report["results"]["bounds"] == [0, 128]
        assert report["results"]["refuted_subproblems"] == 131
        assert [(c["name"], c["ok"]) for c in report["checks"]] == [
            ("uncolorable", True), ("best128", True)]
        text = cert.read_text()
        assert "best 128" in text
        assert text.count("refuted ") == 131
        # the ingest path writes the same certificate as `report`
        digest = hashlib.sha256(cert.read_bytes()).hexdigest()
        assert digest == REPORT_GOLDEN["certificate.txt"]

    def test_toy_single_context_color(self, capsys, tmp_path):
        toy = tmp_path / "toy.txt"
        toy.write_text("1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n")
        code, report = run(capsys, "certify", "--rays", str(toy), "--mode", "color")
        assert code == EXIT_OK
        assert report["results"]["colorable"] is True
        assert len(report["results"]["color_witness"]) == 1
        assert report["checks"] == []

    def test_toy_maximize(self, capsys, tmp_path):
        toy = tmp_path / "toy.txt"
        toy.write_text("1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n")
        code, report = run(capsys, "certify", "--rays", str(toy),
                           "--mode", "all")
        assert code == EXIT_OK
        assert report["results"]["best"] == 1
        assert report["checks"] == []

    @pytest.mark.parametrize("mode, fake, message", [
        # an all-ones witness breaks exclusivity: the colouring's, or that of
        # the single exclusion after an UNSAT colour line
        ("color", lambda p, cover, budget: ((1 << len(p.adj)) - 1, 0, 0),
         "inadmissible witness"),
        ("all", lambda p, cover, budget: (
            None if cover == (1 << len(p.rays)) - 1 else (1 << len(p.adj)) - 1, 0, 0),
         "inadmissible witness"),
        # nothing is ever satisfiable: budget 2 would pass the context count
        ("all", lambda p, cover, budget: (None, 0, 0),
         "exceeded the context count"),
    ])
    def test_engine_error_is_a_json_status(self, capsys, tmp_path, monkeypatch,
                                           mode, fake, message):
        toy = tmp_path / "toy.txt"
        toy.write_text("1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n")
        monkeypatch.setattr(valuations, "_solve", forking(fake))
        code, report = run(capsys, "certify", "--rays", str(toy), "--mode", mode)
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("EngineError: ")
        assert message in report["results"]["error"]

    def test_layout_too_large_is_a_json_status(self, capsys, tmp_path, monkeypatch):
        # a stub engine that finds nothing: escalation stops before budget 3
        monkeypatch.setattr(valuations, "_solve", forking(lambda p, cover, budget: (None, 0, 0)))
        cert = tmp_path / "certificate.txt"
        code, report = run(capsys, "certify", "--rays", str(RAYS165),
                           "--out-certificate", str(cert))
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("LayoutTooLarge: budgets 0-2 ")
        assert not cert.exists()

    def test_incomplete_certificate_is_not_written(self, capsys, rays_file, tmp_path,
                                                   monkeypatch):
        real_maximize = valuations.maximize_covered_contexts

        def drop_last_line(cfg):
            opt = real_maximize(cfg)
            opt.certificate.pop()
            return opt

        monkeypatch.setattr(valuations, "maximize_covered_contexts", drop_last_line)
        cert = tmp_path / "certificate.txt"
        code, report = run(capsys, "certify", "--rays", rays_file, "--mode", "all",
                           "--out-certificate", str(cert))
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("InconsistentCertificates")
        assert not cert.exists()

    def test_lost_fork_fails_replay(self, capsys, rays_file, tmp_path, monkeypatch):
        # context 7's line takes the colour search's record for its own:
        # replay searches it from its root and refuses the certificate
        monkeypatch.setattr(valuations, "_solve", losing_fork(valuations._solve, 7))
        cert = tmp_path / "certificate.txt"
        code, report = run(capsys, "certify", "--rays", rays_file, "--mode", "all",
                           "--out-certificate", str(cert))
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"] == (
            "InconsistentCertificates: certificate replay failed")
        assert not cert.exists()

    @pytest.mark.parametrize("rays", ["published", "missing"])
    def test_color_mode_certificate_refused_before_reading(self, capsys, rays_file,
                                                            tmp_path, rays):
        # a missing ray file would end in FileNotFoundError if it were read
        path = rays_file if rays == "published" else str(tmp_path / "missing.txt")
        cert = tmp_path / "certificate.txt"
        code, report = run(capsys, "certify", "--rays", path, "--mode", "color",
                           "--out-certificate", str(cert))
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"] == (
            "ValueError: --out-certificate needs --mode all: "
            "--mode color writes no certificate")
        assert not cert.exists()

    def test_empty_ray_file_is_a_json_error(self, capsys):
        code, report = run(capsys, "certify", "--rays", "/dev/null")
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"] == "ParseError: no rays in input"


class TestReport:
    def test_full_reproduction(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code, report = run(capsys, "report", "--out-dir", str(out_dir))
        assert code == EXIT_OK
        assert report["status"] == "ok"
        for name in ("rays.txt", "phases.txt", "vectors.txt", "certificate.txt"):
            assert (out_dir / name).exists()
        assert report["results"]["generate"]["rays"] == 165
        assert report["results"]["realify"]["spurious"] == 0
        assert report["results"]["certify"]["colorable"] is False
        assert report["results"]["certify"]["best"] == 128
        names = [c["name"] for c in report["checks"]]
        assert set(names) == {"rays165", "contexts130", "uncolorable", "best128"}
        assert all(c["ok"] for c in report["checks"])

    def test_golden_artifacts_and_stdout(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code = main(["report", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out.replace(json.dumps(str(out_dir)), '"<out_dir>"')
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in REPORT_GOLDEN if name != "stdout"}
        digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        assert digests == REPORT_GOLDEN

    def test_commands_write_the_report_artifacts(self, capsys, tmp_path):
        # generate, realify and certify, each reading the ray file, write the
        # same four files as report
        paths = {name: str(tmp_path / name) for name in REPORT_GOLDEN if name != "stdout"}
        for argv in (["generate", "--out", paths["rays.txt"]],
                     ["realify", "--rays", paths["rays.txt"],
                      "--out-phases", paths["phases.txt"],
                      "--out-vectors", paths["vectors.txt"]],
                     ["certify", "--rays", paths["rays.txt"], "--mode", "all",
                      "--out-certificate", paths["certificate.txt"]]):
            assert main(argv) == EXIT_OK
        capsys.readouterr()
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in paths}
        assert digests == {name: REPORT_GOLDEN[name] for name in paths}

    def test_unfaithful_realify_makes_report_a_discrepancy(self, capsys, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(realify, "verify_faithful", one_spurious_pair)
        code, report = run(capsys, "report", "--out-dir", str(tmp_path / "repro"))
        assert code == EXIT_DISCREPANCY
        assert report["status"] == "discrepancy"
        assert report["results"]["realify"]["spurious"] == 1
        # every named check still passes: the discrepancy is realify's own
        assert all(c["ok"] for c in report["checks"])

    def test_leaves_mpmath_unimported(self, tmp_path):
        # mpmath is a test dependency only; a fresh interpreter, because the
        # tests import it themselves
        script = ("import sys; from ksembed import cli; "
                  "code = cli.main(['report', '--out-dir', sys.argv[1]]); "
                  "assert code == 0, code; "
                  "assert 'mpmath' not in sys.modules, 'mpmath was imported'")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "repro")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_published_solver_counters(self, full_config):
        # the counts behind the golden certificate, readable
        color = valuations.ks_colorable(full_config)
        assert (color.nodes, color.propagations) == (11, 369)
        opt = valuations.maximize_covered_contexts(full_config)
        assert opt.stats == {
            "witness_budget": 2,
            "escalation_nodes": 120,
            "refuted_subproblems": 131,
            "refutation_nodes": 1499,
            "forked_lines": 126,
            "inherited_propagations": 16657,
        }

    def test_works_on_the_generated_configuration(self, capsys, tmp_path, monkeypatch):
        ingests = []
        real_ingest = configuration.ingest_rays

        def counting_ingest(text):
            ingests.append(text)
            return real_ingest(text)

        # all-contexts budget-0 solves, outside and inside certificate replay;
        # maximization's watched colour search apart
        solves = {"search": 0, "watched": 0, "replay": 0}
        phase = ["search"]
        real_solve, real_replay = valuations._solve, valuations.replay_certificate

        def counting_solve(problem, cover, budget, start=None, forks=None):
            if budget == 0 and cover == (1 << len(problem.rays)) - 1:
                solves["watched" if forks is not None else phase[0]] += 1
            return real_solve(problem, cover, budget, start, forks)

        def replay(cfg, result):
            phase[0] = "replay"
            try:
                return real_replay(cfg, result)
            finally:
                phase[0] = "search"

        monkeypatch.setattr(configuration, "ingest_rays", counting_ingest)
        monkeypatch.setattr(valuations, "_solve", counting_solve)
        monkeypatch.setattr(valuations, "replay_certificate", replay)
        code, report = run(capsys, "report", "--out-dir", str(tmp_path / "repro"))
        assert code == EXIT_OK
        assert report["results"]["certify"]["colorable"] is False
        assert ingests == []
        assert solves == {"search": 1, "watched": 1, "replay": 1}


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestMutatedRayFiles:
    """A corrupted ray file ends every CLI path in one documented JSON
    status, with its exit code, and never in a traceback."""

    @pytest.mark.filterwarnings("ignore:165-ray configuration has")
    @given(mutated_ray_files(RAYS165))
    @settings(max_examples=30, deadline=None)
    def test_every_run_ends_in_a_json_status(self, mutation_dir, text):
        self.check_every_run(mutation_dir, text)

    @given(mutated_ray_files(RAYS741))
    @settings(max_examples=10, deadline=None)
    def test_every_stress_run_ends_in_a_json_status(self, mutation_dir, text):
        # fewer examples than at 165 rays: a wide coefficient sends the
        # 741-ray scans through lanes wider than 8 bytes, the slow path
        self.check_every_run(mutation_dir, text)

    @staticmethod
    def check_every_run(mutation_dir, text):
        path = mutation_dir / "rays.txt"
        path.write_text(text)
        for argv in (["realify", "--rays", str(path)],
                     ["certify", "--rays", str(path), "--mode", "color"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            report = json.loads(out.getvalue())
            assert {"ok": EXIT_OK, "discrepancy": EXIT_DISCREPANCY,
                    "error": EXIT_ERROR}[report["status"]] == code


@pytest.fixture(scope="module")
def rays165_contexts():
    return ingest_rays(RAYS165.read_text()).contexts


class TestSubconfigurationRayFiles:
    """The lines of rays165.txt for the rays of 1 to 12 of its contexts make a
    valid ray file; certifying it ends in one JSON object, never a traceback."""

    @given(st.lists(st.integers(0, 129), min_size=1, max_size=12, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_certify_all_ends_in_one_json_status(self, mutation_dir, rays165_contexts,
                                                 picked):
        lines = [ln for ln in RAYS165.read_text().splitlines() if not ln.startswith("#")]
        ids = sorted({r for c in picked for r in rays165_contexts[c]})
        path = mutation_dir / "subconfiguration.txt"
        path.write_text("".join(lines[r] + "\n" for r in ids))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["certify", "--rays", str(path), "--mode", "all"])
        report = json.loads(out.getvalue())
        assert {"ok": EXIT_OK, "discrepancy": EXIT_DISCREPANCY,
                "error": EXIT_ERROR}[report["status"]] == code
        assert report["status"] == "ok", report
        results = report["results"]
        assert results["witness_covered"] == results["best"]
        assert results["bounds"] == [0, results["best"]]


class TestRealifyOptions:
    """Every drawn `realify` of the published rays ends in exactly one JSON
    object whose status matches its exit code, never in a traceback; an
    error names its type."""

    @given(st.integers(-2, 120), st.sampled_from(realify.STRATEGIES),
           st.integers(-2**63, 2**63), st.integers(0, 1100))
    @settings(max_examples=15, deadline=None)
    @example(101, "backtracking", 0, 1000)  # ok, at the widest export
    @example(7, "greedy-random", 0, 20)  # greedy-random exhausts at K = 7
    def test_every_run_ends_in_one_json_status(self, mutation_dir, k, strategy, seed,
                                               precision):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["realify", "--rays", str(RAYS165),
                         "--out-phases", str(mutation_dir / "phases.txt"),
                         "--out-vectors", str(mutation_dir / "vectors.txt"),
                         "--K", str(k), "--strategy", strategy, "--seed", str(seed),
                         "--precision", str(precision)])
        report = json.loads(out.getvalue())
        assert {"ok": EXIT_OK, "discrepancy": EXIT_DISCREPANCY,
                "error": EXIT_ERROR}[report["status"]] == code
        assert "Traceback" not in err.getvalue()
        if code == EXIT_ERROR:
            assert report["results"]["error"].startswith(
                ("InvalidK: ", "SearchExhausted: ", "ValueError: ")), report


FAITHFUL165 = {"spurious": 0, "missing": 0, "pairs_checked": 13530}
FAITHFUL741 = {"spurious": 0, "missing": 0, "pairs_checked": 274170}


class TestPinnedArtifacts:
    """Runs past the published settings, each with its JSON results and the
    sha256 of every file it writes pinned: the exports at other precisions,
    large and small K, and colourability at stress scale."""

    @pytest.mark.parametrize("argv, results, pins", [
        (["realify", "--rays", RAYS741], dict(FAITHFUL741, K=1009), {
            "--out-phases": "f660961e569dc15c19d4a4d9d342e238566fef17b17e0a441a77a05f22a9226c",
            "--out-vectors": "d75cb151e6bc8e4b1f667a1d35531010e48aa72552c7683b61a4a58295edbfd0",
        }),
        (["realify", "--rays", RAYS741, "--precision", 15], FAITHFUL741, {
            "--out-vectors": "5deeb78af2bff2de0edc73893aff6b330e2196929b787d2e802a5fe1ebd7c39f",
        }),
        (["realify", "--rays", RAYS741, "--precision", 40], FAITHFUL741, {
            "--out-vectors": "a085a3cd8cf0570bf484f26e09fde3d5b7b02f74d36fa127e2788c9c9d308b74",
        }),
        (["realify", "--rays", RAYS165, "--precision", 15], FAITHFUL165, {
            "--out-vectors": "63daf30ca465c21132db631c51812c1b5f9c715cdc7b10ffb84afcd8f896d30b",
        }),
        (["realify", "--rays", RAYS165, "--precision", 40], FAITHFUL165, {
            "--out-vectors": "67517e74ac93dc7f064c8af53cd89e0c3ae7e51fcd2e09ea17428f92500a273f",
        }),
        (["realify", "--rays", RAYS165, "--precision", 1000], FAITHFUL165, {
            "--out-vectors": "c94c64f3eb6d1035f06e62e8b0019aa3dade6db9d8e2d76b12e10f6548b303ce",
        }),
        (["realify", "--rays", RAYS741, "--K", 10**18 + 1],
         dict(FAITHFUL741, K=10**18 + 1), {
            "--out-phases": "c4edac1abe9b7024e6705aa29a57d66a3aa8e604e393cae1132293a3ca206941",
            "--out-vectors": "39485fbafe0d57261954c7a79c399f3b9620772f3a06c1db8337bdc1472de2e5",
        }),
        # the first pass leaves ray 1 undecided, and twice its bits pass the
        # cap of p + 1000 digits, so the last pass is at the cap
        (["realify", "--rays", RAYS165, "--K", 10**18 + 1, "--precision", 1000],
         dict(FAITHFUL165, K=10**18 + 1), {
            "--out-vectors": "0c24d44be667348703ba26c2029f9ced86f45fa968e12ea2a9225e43a0983885",
        }),
        # directions located from 256 bits, the first precision where
        # K*2^-bits < 1/2
        (["realify", "--rays", RAYS741, "--K", 10**51 + 1],
         dict(FAITHFUL741, K=10**51 + 1), {
            "--out-phases": "97825b816e424bf26a73dec263f04fb0124d8342786689ea9d42c7c707d6e9a4",
            "--out-vectors": "8507ceea523e482ec9e20469640f79aa92499f5b0954ab66f9b76e6d0565e831",
        }),
        (["realify", "--rays", RAYS165, "--strategy", "backtracking", "--K", 5],
         dict(FAITHFUL165, K=5), {
            "--out-phases": "b82b89c00ba94368336843365370b58d746f60abef79804ec4a43397262491c6",
            "--out-vectors": "1f401b1ef581af76cb3d6dd4d564f489766b6616507c7d5561718a4facb1130d",
        }),
        (["certify", "--rays", RAYS741, "--mode", "color"],
         {"colorable": False, "color_nodes": 11}, {}),
    ], ids=["741-p20", "741-p15", "741-p40", "165-p15", "165-p40", "165-p1000",
            "741-K1e18", "165-K1e18-p1000", "741-K1e51", "165-K5-backtracking",
            "741-color"])
    def test_artifacts_match_their_pins(self, capsys, tmp_path, argv, results, pins):
        paths = {flag: tmp_path / flag.lstrip("-") for flag in pins}
        code, report = run(capsys, *map(str, argv),
                           *(arg for flag, path in paths.items() for arg in (flag, str(path))))
        assert code == EXIT_OK and report["status"] == "ok", report
        assert {key: report["results"][key] for key in results} == results
        assert {flag: hashlib.sha256(path.read_bytes()).hexdigest()
                for flag, path in paths.items()} == pins


class TestObjectLayer:
    """Past the 12 seed rays and the ray-file parse, no CLI path builds a
    VecC3 or an EisensteinInt: the pipeline computes on flat tuples."""

    @staticmethod
    def constructions(monkeypatch, argv) -> tuple[int, int]:
        counts = {VecC3: 0, EisensteinInt: 0}
        for cls in counts:
            def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == EXIT_OK
        return counts[VecC3], counts[EisensteinInt]

    def test_report_builds_only_the_seed(self, monkeypatch, tmp_path):
        # 12 seed vectors and their 12 canonical forms, 3 coordinates each
        assert self.constructions(
            monkeypatch, ["report", "--out-dir", str(tmp_path / "repro")]) == (24, 36)

    def test_realify_builds_only_the_parsed_rays(self, monkeypatch):
        assert self.constructions(
            monkeypatch, ["realify", "--rays", str(RAYS741)]) == (741, 3 * 741)
