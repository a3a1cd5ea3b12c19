"""End-to-end checks of the experiment driver."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinchain
from twinchain import cli
from twinchain.cli import ExperimentConfig, main, write_svg_polyline
from twinchain.lattice import load_chain
from twinchain.minimize import MinimizeOptions


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One quick minimize run shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("quick")
    code = run("minimize", "--quick", "--out", out)
    assert code == 0
    return out


class TestMinimize:
    def test_quick_outputs_exist(self, quick_run):
        names = {p.name for p in quick_run.iterdir()}
        assert {"report-n8.txt", "chain-n8.txt", "reference-n8.txt",
                "breakdown-n8.csv", "classification-n8.csv",
                "profile-left-n8.csv", "profile-right-n8.csv"} <= names

    def test_report_contents(self, quick_run):
        text = (quick_run / "report-n8.txt").read_text()
        assert "converged=1" in text
        assert "admissibility_violations=0" in text
        assert "interfaces=1" in text

    def test_every_output_embeds_config(self, quick_run):
        for path in quick_run.iterdir():
            first = path.read_text().splitlines()[0]
            if path.name.startswith("chain") or path.name.startswith("reference"):
                # snapshots carry the config inside the head record instead
                head = json.loads(path.read_text().splitlines()[1][2:])
                assert "config" in head and "a=" in head["config"]
            else:
                assert first.startswith("# config a="), path.name

    def test_snapshot_roundtrip(self, quick_run):
        chain = load_chain(quick_run / "chain-n8.txt")
        ref = load_chain(quick_run / "reference-n8.txt")
        assert chain.n == ref.n == 8
        assert np.isfinite(chain.u).all()

    def test_deterministic_rerun(self, quick_run, tmp_path):
        assert run("minimize", "--quick", "--out", tmp_path) == 0
        for path in sorted(quick_run.iterdir()):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()


class TestScan:
    def test_table_and_plot_data(self, tmp_path):
        assert run("scan", "--quick", "--svg", "--out", tmp_path) == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[2] == "n,lambda_n,total_energy,rescaled_energy,iterations,converged"
        fields = lines[3].split(",")
        assert fields[0] == "8" and fields[5] == "1"
        assert abs(float(fields[1]) - 0.125) < 1e-15
        # rescaled = total / lambda_n
        assert abs(float(fields[3]) * 0.125 - float(fields[2])) < 1e-12
        dat = (tmp_path / "scan-loglog.dat").read_text().splitlines()
        x, y = map(float, dat[2].split())
        assert abs(x - np.log10(8)) < 1e-15
        assert abs(y - np.log10(float(fields[2]))) < 1e-12
        assert (tmp_path / "scan.svg").read_text().startswith("<svg")


class TestLayersAndDiagnose:
    def test_layers_quick(self, tmp_path):
        assert run("layers", "--quick", "--out", tmp_path) == 0
        table = (tmp_path / "layers.csv").read_text().splitlines()
        assert table[1] == "# layer-estimates v1"
        kinds = [row.split(",")[0] for row in table[3:]]
        assert kinds.count("C") == 4 and kinds.count("B_plus") == 2
        comp = dict(line.split("=", 1) for line in
                    (tmp_path / "composition.txt").read_text().splitlines()
                    if "=" in line and not line.startswith("#"))
        first = float(comp["ek_first_ordering"])
        second = float(comp["ek_second_ordering"])
        assert first == pytest.approx(second, rel=1e-9)
        assert float(comp["relative_gap"]) < 0.10

    def test_diagnose_quick(self, tmp_path):
        assert run("diagnose", "--quick", "--out", tmp_path) == 0
        lines = (tmp_path / "diagnose.csv").read_text().splitlines()
        assert lines[2] == "n,threshold,sites_above,rows_above,j_minus,j_zero,j_plus,status"
        row = lines[3].split(",")
        assert len(row) == 8
        assert int(row[2]) > 0


class TestNonConvergence:
    @pytest.mark.parametrize("command, written", [
        ("minimize", "report-n8.txt"),
        ("scan", "scan.csv"),
        ("diagnose", "diagnose.csv"),
    ])
    def test_unconverged_run_exits_1(self, monkeypatch, tmp_path, capsys,
                                     command, written):
        # one Newton iteration does not reach the gradient tolerance
        monkeypatch.setattr(cli, "MinimizeOptions",
                            functools.partial(MinimizeOptions, max_iters=1))
        assert run(command, "--n", 8, "--out", tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert f"{command} failed to converge for n = 8" in err
        assert (tmp_path / written).is_file()

    def test_unconverged_layers_reference_exits_1(self, monkeypatch, tmp_path,
                                                  capsys):
        # starve only the reference relaxation: layer solves go through
        # gamma's own newton_minimize binding
        monkeypatch.setattr(cli, "newton_minimize", functools.partial(
            cli.newton_minimize, opts=MinimizeOptions(max_iters=1)))
        assert run("layers", "--quick", "--out", tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert "layers failed to converge for reference n = 20" in err
        assert (tmp_path / "composition.txt").is_file()

    def test_start_at_the_gradient_stop_exits_1(self, tmp_path, capsys):
        # at a = 1.00001 the warm start already meets the gradient stop, so the
        # relaxed chain is its reference and every deviation is 0: no decay
        # fit on either side, but every other file is written
        assert run("minimize", "--a", 1.00001, "--n", 8, "--out", tmp_path) == 1
        reason = "window contains nonpositive deviations"
        assert capsys.readouterr().err.splitlines() == [
            f"minimize has no decay fit for n = 8 right ({reason}), n = 8 left ({reason})"]
        assert {p.name for p in tmp_path.iterdir()} == {
            "report-n8.txt", "chain-n8.txt", "reference-n8.txt",
            "breakdown-n8.csv", "classification-n8.csv"}
        report = (tmp_path / "report-n8.txt").read_text()
        assert "converged=1" in report and "iterations=0" in report


def test_startup_skips_unused_scipy_modules():
    # start-up loads numpy only: the Newton solve needs no scipy.linalg, and
    # estimate_layer imports scipy.optimize only for search_offset=True
    src = str(Path(twinchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, twinchain.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestFitDecay:
    def test_roundtrip_matches_run(self, quick_run, tmp_path, capsys):
        code = run("fit-decay", "--chain", quick_run / "chain-n8.txt",
                   "--reference", quick_run / "reference-n8.txt",
                   "--lo", 2, "--hi", 6, "--out", tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        stored = (quick_run / "profile-right-n8.csv").read_text().splitlines()[2]
        rate = float(stored.split(",")[0].split("=")[1])
        assert f"rate={rate:.17g}" in printed

    @pytest.mark.parametrize("case, message", [
        ("missing-chain", "absent.txt"),
        ("other-n", "chains must share the same lattice geometry"),
        ("short-window", "window holds 3 points"),
        ("header-only", "header-only.txt"),
        ("head-without-a", "head-without-a.txt"),
        ("two-field-row", "two-field-row.txt"),
    ], ids=["missing-chain", "other-n", "short-window", "header-only",
            "head-without-a", "two-field-row"])
    def test_input_errors_exit_2(self, quick_run, tmp_path, capsys, case, message):
        chain, lo, hi = quick_run / "chain-n8.txt", 2, 6
        reference = quick_run / "reference-n8.txt"
        lines = chain.read_text().splitlines()
        if case == "missing-chain":
            chain = tmp_path / "absent.txt"
        elif case == "other-n":
            assert run("minimize", "--n", 9, "--out", tmp_path / "n9") == 0
            reference = tmp_path / "n9" / "reference-n9.txt"
        elif case == "short-window":
            lo, hi = 2, 4
        else:
            # malformed snapshots: no head record, a head record without the
            # stretch, an atom row cut to two fields
            if case == "header-only":
                lines = lines[:1]
            elif case == "head-without-a":
                head = json.loads(lines[1][2:])
                del head["a"]
                lines[1] = "# " + json.dumps(head)
            else:
                lines[5] = ",".join(lines[5].split(",")[:2])
            chain = tmp_path / f"{case}.txt"
            chain.write_text("\n".join(lines) + "\n")
        code = run("fit-decay", "--chain", chain, "--reference", reference,
                   "--lo", lo, "--hi", hi, "--out", tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ("minimize", "--lambda", "2"),
        ("minimize", "--lambda", "0"),
        ("minimize", "--a", "1"),
        ("minimize", "--n", "4"),
        ("scan", "--alpha", "1.5"),
        ("scan", "--delta", "0.3"),
        ("minimize", "--seed", "1"),
        ("minimize", "--a", "1.0000000000001"),
        ("minimize", "--a", "1e-4"),
        ("minimize", "--a", "1e200"),
    ])
    def test_usage_errors_exit_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(*argv, "--out", tmp_path)
        assert err.value.code == 2

    @pytest.mark.parametrize("text, named", [
        ('{"n": []}', "--n"),
        ('{"n": 5}', "'n'"),
        ('{"n": ["x"]}', "'n'"),
        ('{"quick": "no"}', "'quick'"),
        ('{"a": "x"}', "'a'"),
        ('{"a": 1e-4}', "--a"),
        ('{"lambda": null}', "'lambda'"),
        ("5", "JSON object"),
    ], ids=["empty-n", "n-scalar", "n-strings", "quick-string", "a-string",
            "a-not-rank-one", "lambda-null", "top-level-number"])
    def test_malformed_config_values(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as err:
            run("scan", "--config", cfg, "--out", tmp_path)
        assert err.value.code == 2
        assert named in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"m": 3}')
        with pytest.raises(SystemExit) as err:
            run("scan", "--config", cfg, "--out", tmp_path)
        assert err.value.code == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.25, "n": [8], "quick": True}))
        out = tmp_path / "run"
        assert run("minimize", "--config", cfg, "--lambda", "0.5",
                   "--out", out) == 0
        head = (out / "report-n8.txt").read_text().splitlines()[0]
        assert "lambda=0.5 " in head
        assert "n=[8]" in head

    def test_quick_defaults_small_size(self):
        # config resolution is exercised through the header string
        assert ExperimentConfig().n_list == (40, 100, 200)

    def test_svg_writer_spans_data(self, tmp_path):
        path = tmp_path / "p.svg"
        write_svg_polyline(path, [1.0, 2.0, 4.0], [3.0, 1.0, 2.0], title="t")
        text = path.read_text()
        assert "polyline" in text and "<svg" in text
        assert text.count("<line") == 2
