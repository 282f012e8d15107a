"""Command-line behavior: reports, exit codes, artifacts, determinism."""

import hashlib
import json

import pytest

from ksembed import configuration, valuations
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
        ("color", lambda p: ((1 << p.n) - 1, valuations.SolveStats()),
         "inadmissible witness"),
        ("maximize", lambda p: (None if p.budget == 0 else (1 << p.n) - 1,
                                valuations.SolveStats()),
         "inadmissible witness"),
        # nothing is ever satisfiable: escalation passes the context count
        ("maximize", lambda p: (None, valuations.SolveStats()),
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

        def counting_solve(problem):
            if problem.budget == 0 and len(problem.must_cover) == len(problem.contexts):
                solves[phase[0]] += 1
            return real_solve(problem)

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
