"""Command-line behavior: reports, exit codes, artifacts, determinism."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksembed import cli, configuration, realify, valuations
from ksembed.cli import EXIT_DISCREPANCY, EXIT_ERROR, EXIT_OK, main
from ksembed.configuration import ingest_rays

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


RAYS165 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rays165.txt"


@st.composite
def mutated_ray_files(draw):
    """rays165.txt after one to three line mutations: a line deleted, a line
    duplicated, or one whitespace-separated field of a line replaced (or
    one appended) by a coordinate with a wide coefficient or by short text
    over the file's own characters."""
    lines = RAYS165.read_text().splitlines()
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

    def test_basis_only_seed(self, capsys, tmp_path):
        out = tmp_path / "basis.txt"
        code, report = run(capsys, "generate", "--out", str(out),
                           "--seed-choice", "basis-only")
        assert code == EXIT_OK
        assert report["results"]["rays"] == 3
        assert report["results"]["contexts"] == 1
        # paper checks do not apply to a toy seed
        assert report["checks"] == []

    def test_forced_expectation_fails_on_toy_seed(self, capsys, tmp_path):
        out = tmp_path / "basis.txt"
        code, report = run(capsys, "generate", "--out", str(out),
                           "--seed-choice", "basis-only", "--expect", "rays165")
        assert code == EXIT_DISCREPANCY
        assert report["status"] == "discrepancy"

    def test_disabled_expectation(self, capsys, tmp_path):
        out = tmp_path / "rays.txt"
        code, report = run(capsys, "generate", "--out", str(out),
                           "--no-expect", "rays165", "--no-expect", "contexts130")
        assert code == EXIT_OK
        assert report["checks"] == []

    def test_unknown_check_name(self, capsys, tmp_path):
        code, report = run(capsys, "generate", "--out", str(tmp_path / "r.txt"),
                           "--expect", "raysss")
        assert code == EXIT_ERROR

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
    ], ids=["invalid-choice", "invalid-int", "missing-subcommand"])
    def test_usage_error_is_a_json_error(self, capsys, argv, command, message):
        # not argparse's exit 2, which is the discrepancy code
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == EXIT_ERROR
        assert report["status"] == "error" and report["command"] == command
        assert report["results"]["error"].startswith(f"ArgumentError: {message}")
        assert captured.err.startswith(f"error: {message}")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: ksembed" in capsys.readouterr().out


STEPS = ("cmd_generate", "cmd_realify", "cmd_certify")


class TestCommands:
    @pytest.mark.parametrize("argv, inputs", [
        (["generate", "--out", "{tmp}/rays.txt", "--no-expect", "rays165"],
         {"out": "{tmp}/rays.txt", "seed_choice": "mub"}),
        (["realify", "--rays", "{rays}"],
         {"rays": "{rays}", "K": 1009, "strategy": "distinct", "seed": 0, "precision": 20,
          "out_phases": None, "out_vectors": None}),
        (["realify", "--rays", "{rays}", "--K", "1013", "--strategy", "greedy-random",
          "--seed", "3", "--precision", "15", "--out-phases", "{tmp}/phases.txt"],
         {"rays": "{rays}", "K": 1013, "strategy": "greedy-random", "seed": 3,
          "precision": 15, "out_phases": "{tmp}/phases.txt", "out_vectors": None}),
        (["certify", "--rays", "{rays}", "--mode", "color", "--expect", "uncolorable"],
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


class TestForcedChecks:
    @pytest.mark.parametrize("argv, skipped", [
        (["generate", "--seed-choice", "basis-only", "--expect", "uncolorable"],
         ["uncolorable"]),
        (["realify", "--expect", "rays165"], ["rays165"]),
        (["certify", "--mode", "color", "--expect", "best128", "--expect", "rays165"],
         ["best128", "rays165"]),
        (["certify", "--mode", "maximize", "--expect", "uncolorable"], ["uncolorable"]),
        (["certify", "--mode", "all", "--expect", "contexts130"], ["contexts130"]),
    ])
    def test_check_the_command_never_evaluates_is_an_error(self, capsys, tmp_path,
                                                           argv, skipped):
        toy = tmp_path / "toy.txt"
        toy.write_text("1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n")
        out = tmp_path / "rays.txt"
        source = ["--out", str(out)] if argv[0] == "generate" else ["--rays", str(toy)]
        code, report = run(capsys, argv[0], *source, *argv[1:])
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        for name in skipped:
            assert name in report["results"]["error"]
        assert not out.exists()

    def test_check_forced_both_on_and_off_is_an_error(self, capsys, tmp_path):
        out = tmp_path / "rays.txt"
        code, report = run(capsys, "generate", "--out", str(out),
                           "--expect", "rays165", "--no-expect", "rays165")
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert "rays165" in report["results"]["error"]
        assert not out.exists()

    def test_evaluated_check_forced_on_toy_input(self, capsys, tmp_path):
        toy = tmp_path / "toy.txt"
        toy.write_text("1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n")
        code, report = run(capsys, "certify", "--rays", str(toy), "--mode", "maximize",
                           "--expect", "best128")
        assert code == EXIT_DISCREPANCY
        assert [c["name"] for c in report["checks"]] == ["best128"]


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
                           "--mode", "maximize", "--out-certificate", str(cert))
        assert code == EXIT_OK
        assert report["results"]["best"] == 128
        assert report["results"]["bounds"] == [0, 128]
        assert report["results"]["refuted_subproblems"] == 131
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
                           "--mode", "maximize")
        assert code == EXIT_OK
        assert report["results"]["best"] == 1

    @pytest.mark.parametrize("mode, fake, message", [
        # an all-ones witness breaks exclusivity
        ("color", lambda p, must, budget: ((1 << len(p.adj)) - 1,
                                           valuations.SolveStats()),
         "inadmissible witness"),
        ("maximize", lambda p, must, budget: (
            None if budget == 0 else (1 << len(p.adj)) - 1, valuations.SolveStats()),
         "inadmissible witness"),
        # nothing is ever satisfiable: escalation passes the context count
        ("maximize", lambda p, must, budget: (None, valuations.SolveStats()),
         "exceeded the context count"),
    ])
    def test_engine_error_is_a_json_status(self, capsys, tmp_path, monkeypatch,
                                           mode, fake, message):
        toy = tmp_path / "toy.txt"
        toy.write_text("1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n")
        monkeypatch.setattr(valuations, "_solve", fake)
        code, report = run(capsys, "certify", "--rays", str(toy), "--mode", mode)
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("EngineError: ")
        assert message in report["results"]["error"]

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
            "ValueError: --out-certificate needs --mode maximize or all: "
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

    @pytest.mark.parametrize("flag, value, error", [
        pytest.param("--precision", "3", "precision must be >= 15", id="precision-3"),
        pytest.param("--K", "9", "InvalidK", id="K-9"),
        pytest.param("--precision", "1000000", "and <= 1000 significant digits",
                     id="precision-1000000"),
    ])
    def test_low_precision_refused_before_any_file(self, capsys, tmp_path, flag, value,
                                                   error):
        out_dir = tmp_path / "repro"
        code, report = run(capsys, "report", "--out-dir", str(out_dir), flag, value)
        assert code == EXIT_ERROR
        assert report["status"] == "error"
        assert error in report["results"]["error"]
        assert not out_dir.exists()

    def test_published_solver_counters(self, full_config):
        # the counts behind the golden certificate, readable
        color = valuations.ks_colorable(full_config)
        assert (color.nodes, color.propagations) == (11, 369)
        opt = valuations.maximize_covered_contexts(full_config)
        assert opt.stats == {
            "witness_budget": 2,
            "escalation_nodes": 436,
            "refuted_subproblems": 131,
            "refutation_nodes": 1499,
        }

    def test_works_on_the_generated_configuration(self, capsys, tmp_path, monkeypatch):
        ingests = []
        real_ingest = configuration.ingest_rays

        def counting_ingest(text):
            ingests.append(text)
            return real_ingest(text)

        # all-contexts budget-0 solves, outside and inside certificate replay
        solves = {"search": 0, "replay": 0}
        phase = ["search"]
        real_solve, real_replay = valuations._solve, valuations.replay_certificate

        def counting_solve(problem, must_cover, budget):
            if budget == 0 and len(must_cover) == len(problem.rays):
                solves[phase[0]] += 1
            return real_solve(problem, must_cover, budget)

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
        assert solves == {"search": 1, "replay": 1}


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestMutatedRayFiles:
    """A corrupted ray file ends every CLI path in one documented JSON
    status, with its exit code, and never in a traceback."""

    @pytest.mark.filterwarnings("ignore:165-ray configuration has")
    @given(mutated_ray_files())
    @settings(max_examples=30, deadline=None)
    def test_every_run_ends_in_a_json_status(self, mutation_dir, text):
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
