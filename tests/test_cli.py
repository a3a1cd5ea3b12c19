"""End-to-end checks of the experiment driver."""

import argparse
import ast
import functools
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinchain
from twinchain import cli, gamma, lattice
from twinchain.cli import ExperimentConfig, main, write_svg_polyline
from twinchain.energy import chain_energy
from twinchain.lattice import load_chain
from twinchain.minimize import MinimizeOptions


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One quick minimize run shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("quick")
    code = run("minimize", "--n", 8, "--out", out)
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

    def test_header_names_the_settings_of_the_flags(self, quick_run):
        head = "config a=1.4142135623730951 lambda=0.5 n=[8] variable_tau=0"
        for path in quick_run.iterdir():
            lines = path.read_text().splitlines()
            if path.name.startswith(("chain", "reference")):
                assert json.loads(lines[1][2:])["config"] == head
            else:
                assert lines[0] == "# " + head, path.name

    def test_snapshot_roundtrip(self, quick_run):
        chain = load_chain(quick_run / "chain-n8.txt")
        ref = load_chain(quick_run / "reference-n8.txt")
        assert chain.n == ref.n == 8
        assert np.isfinite(chain.u).all()

    def test_deterministic_rerun(self, quick_run, tmp_path):
        assert run("minimize", "--n", 8, "--out", tmp_path) == 0
        for path in sorted(quick_run.iterdir()):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()


class TestScan:
    def test_table_and_plot_data(self, tmp_path):
        assert run("scan", "--n", 8, "--svg", "--out", tmp_path) == 0
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


class TestInterfacePosition:
    def test_fixed_tau_limit_does_not_depend_on_lambda(self):
        # --lambda moves the kink to column (1 - 2 lambda) n.  The limit E_inf
        # of E = E_inf + c/n + d/n^2, fitted through three sizes, is the
        # interface's energy: at lambda = 0.1 and 0.3 it lies 3.0e-5 and
        # 4.8e-6 off the centred one at n = 200/400/800 (7.7e-5 and 1.4e-5
        # at 100/200/400), and the gap shrinks as the sizes grow
        rescaled = {}
        for lam in (0.1, 0.3, 0.5):
            for n in (100, 200, 400, 800):
                _, _, report = cli._relax(ExperimentConfig(lam=lam), n)
                assert report.converged
                rescaled[lam, n] = chain_energy(report.final_chain).rescaled

        def gaps(sizes):
            basis = np.array([[1.0, 1.0 / n, 1.0 / n ** 2] for n in sizes])
            limit = {lam: np.linalg.solve(basis, [rescaled[lam, n] for n in sizes])[0]
                     for lam in (0.1, 0.3, 0.5)}
            return np.array([abs(limit[lam] / limit[0.5] - 1.0) for lam in (0.1, 0.3)])

        small, large = gaps((100, 200, 400)), gaps((200, 400, 800))
        assert (large <= 5e-5).all()
        assert (large < small).all()

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.9])
    def test_qu1_share_is_lambda(self, lam):
        # as in F = (1 - lambda) U0 + lambda Q U1: of the 2n bonds between
        # atoms -n and n (ghosts left out), those right of the kink take
        # Q U1's first column
        wells = cli.build_wells(np.sqrt(2.0))
        for n in (8, 40, 101):
            col = cli._interface_column(ExperimentConfig(lam=lam), n)
            chain = cli.twin_chain(n, wells, interface_column=col)
            inside = chain.u[np.abs(chain.geometry.atom_ids()) <= n]
            h = np.diff(inside, axis=0) / chain.lam
            on_qu1 = (np.linalg.norm(h - wells.QU1[:, 0], axis=1)
                      < np.linalg.norm(h - wells.U0[:, 0], axis=1))
            assert abs(on_qu1.mean() - lam) <= 1.0 / (2 * n), n


class TestLayersAndDiagnose:
    def test_layers_quick(self, monkeypatch, tmp_path):
        calls = []
        solve = gamma._solve_layer

        def counted(kind, *args):
            calls.append(kind)
            return solve(kind, *args)

        monkeypatch.setattr(gamma, "_solve_layer", counted)
        assert run("layers", "--quick", "--out", tmp_path) == 0
        # each distinct layer is solved once, at heights 4 and 6: the flat C
        # layer, then B_plus, C and B_minus; the second ordering is derived
        assert calls == [kind for kind in ("C", "B_plus", "C", "B_minus")
                         for _ in (4, 6)]
        table = (tmp_path / "layers.csv").read_text().splitlines()
        assert table[1] == "# layer-estimates v2"
        kinds = [row.split(",")[0] for row in table[3:]]
        assert kinds.count("C") == 4 and kinds.count("B_plus") == 2
        comp = dict(line.split("=", 1) for line in
                    (tmp_path / "composition.txt").read_text().splitlines()
                    if "=" in line and not line.startswith("#"))
        first = float(comp["ek_first_ordering"])
        second = float(comp["ek_second_ordering"])
        assert first == pytest.approx(second, rel=1e-9)
        assert float(comp["relative_gap"]) < 0.10

    def test_layers_quick_at_a_2(self, tmp_path):
        # the zero-offset boundary layers vanish here too, so the composition
        # stays near the reference relaxation
        assert run("layers", "--quick", "--a", 2.0, "--out", tmp_path) == 0
        comp = dict(line.split("=", 1) for line in
                    (tmp_path / "composition.txt").read_text().splitlines()
                    if "=" in line and not line.startswith("#"))
        assert float(comp["relative_gap"]) < 0.10

    def test_diagnose_quick(self, tmp_path):
        assert run("diagnose", "--n", 8, "--out", tmp_path) == 0
        lines = (tmp_path / "diagnose.csv").read_text().splitlines()
        assert lines[1] == "# diagnose v2"
        assert lines[2] == ("n,off_well_columns_1e-2,off_well_columns_1e-1,n_mean_dist_sq,"
                            "j_minus,j_zero,j_plus,status")
        row = lines[3].split(",")
        assert len(row) == 8
        assert (int(row[1]), int(row[2])) == (16, 2)

    @staticmethod
    def _rigidity(path):
        """Per row of diagnose.csv: n -> (the two off-well counts, n * mean dist^2)."""
        rows = [line.split(",") for line in path.read_text().splitlines()[3:]]
        return {int(r[0]): ((int(r[1]), int(r[2])), float(r[3])) for r in rows}

    def test_diagnose_rows_pinned(self, tmp_path):
        assert run("diagnose", "--n", 40, "--n", 100, "--out", tmp_path) == 0
        lines = (tmp_path / "diagnose.csv").read_text().splitlines()
        # the good-line cells are those of diagnose v1
        assert [line.split(",", 4)[4] for line in lines[3:]] == [
            ",,,no row in band 'minus' satisfies the row-sum bound",
            "-90,0,90,ok",
        ]
        rigidity = self._rigidity(tmp_path / "diagnose.csv")
        assert [counts for counts, _ in rigidity.values()] == [(4, 2), (4, 2)]
        assert rigidity[40][1] == pytest.approx(0.094638629238959909, rel=1e-12)
        assert rigidity[100][1] == pytest.approx(0.095923789921539285, rel=1e-12)

    def test_diagnose_rigidity_across_n(self, tmp_path):
        # asymptotic piecewise rigidity: the off-well columns stay a fixed
        # count, and the L^2 distance to the wells decays like n^(-1/2)
        assert run("diagnose", "--n", 100, "--n", 200, "--n", 400, "--out", tmp_path) == 0
        rigidity = self._rigidity(tmp_path / "diagnose.csv")
        assert sorted(rigidity) == [100, 200, 400]
        assert len({counts for counts, _ in rigidity.values()}) == 1
        assert rigidity[400][1] == pytest.approx(rigidity[200][1], rel=1e-2)


class TestLatticeOracle:
    # the reconstructed O(n^2) lattice is the tests' independent oracle only
    @pytest.mark.parametrize("argv", [
        ("minimize", "--n", 8, "--n", 12),
        ("minimize", "--variable-tau", "--n", 8),
        ("scan", "--n", 8, "--n", 12, "--n", 16),
        ("diagnose", "--n", 8),
        ("layers", "--quick"),
    ], ids=["minimize", "minimize-variable-tau", "scan", "diagnose", "layers-quick"])
    def test_no_command_builds_the_lattice(self, monkeypatch, tmp_path, argv):
        oracle = (lattice.reconstruct, lattice.check_admissible)

        def refuse(*args, **kwargs):
            raise AssertionError("a CLI command built the reconstructed lattice")

        for module in twinchain._EXPORTS:
            importlib.import_module(f"twinchain.{module}")
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "twinchain":
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in oracle):
                        monkeypatch.setattr(module, attr, refuse)
        assert run(*argv, "--out", tmp_path) == 0


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

    def test_failed_layer_height_exits_1(self, monkeypatch, tmp_path, capsys):
        # B_minus fails at the top height: its value would silently come from
        # the height below, so the run must say so and exit 1
        solve = gamma._solve_layer

        def failing(kind, V_left, V_right, r, L, n_v, wells, below=None):
            if kind == "B_minus" and n_v == 6:
                return None, below
            return solve(kind, V_left, V_right, r, L, n_v, wells, below)

        monkeypatch.setattr(gamma, "_solve_layer", failing)
        assert run("layers", "--quick", "--out", tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            "layers has no converged solve for B_minus at n = 6"]
        assert (tmp_path / "composition.txt").is_file()

    def test_failed_flat_layer_is_named_apart(self, monkeypatch, tmp_path, capsys):
        # the flat U0|U0 layer and the internal U0|QU1 layer are both kind C;
        # the failure line must say which one has no converged solve
        solve = gamma._solve_layer

        def failing(kind, V_left, V_right, r, L, n_v, wells, below=None):
            if kind == "C" and np.array_equal(V_left, V_right) and n_v == 6:
                return None, below
            return solve(kind, V_left, V_right, r, L, n_v, wells, below)

        monkeypatch.setattr(gamma, "_solve_layer", failing)
        assert run("layers", "--quick", "--out", tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            "layers has no converged solve for flat C at n = 6"]
        assert (tmp_path / "composition.txt").is_file()

    def test_layer_failed_at_every_height_exits_1(self, monkeypatch, tmp_path, capsys):
        # B_minus fails at both heights: its value is nan, and the run still
        # writes both files and names each failed height
        solve = gamma._solve_layer

        def failing(kind, V_left, V_right, r, L, n_v, wells, below=None):
            if kind == "B_minus":
                return None, below
            return solve(kind, V_left, V_right, r, L, n_v, wells, below)

        monkeypatch.setattr(gamma, "_solve_layer", failing)
        assert run("layers", "--quick", "--out", tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            "layers has no converged solve for B_minus at n = 4, B_minus at n = 6"]
        table = (tmp_path / "layers.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[1] for row in table
                if row.startswith("B_minus,")] == ["nan", "nan"]
        comp = dict(line.split("=", 1) for line in
                    (tmp_path / "composition.txt").read_text().splitlines()
                    if "=" in line and not line.startswith("#"))
        assert [comp[k] for k in ("ek_first_ordering", "ek_second_ordering",
                                  "ek_min")] == ["nan"] * 3

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


def _requirement_names(requirements):
    return sorted(re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower()
                  for r in requirements)


def test_startup_skips_unused_scipy_modules(tmp_path):
    # the package runs on numpy alone: scipy is a test oracle only
    package = Path(twinchain.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    probe = ("import sys, twinchain.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

    # with scipy unimportable, a layer run and a relaxation still succeed
    blocked = ("import sys; sys.modules['scipy'] = None\n"
               "from twinchain.cli import main\n"
               "codes = [main(['layers', '--quick', '--out', sys.argv[1]]),\n"
               "         main(['minimize', '--n', '8', '--out', sys.argv[2]])]\n"
               "print(codes)")
    out = subprocess.run([sys.executable, "-c", blocked, str(tmp_path / "layers"),
                          str(tmp_path / "minimize")], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0]"

    # no module imports scipy at any depth, lazily or not
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (
                f"{path.name}:{node.lineno} imports scipy")

    # installing the package pulls numpy only; the dev extra brings scipy
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(package.parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert _requirement_names(project["dependencies"]) == ["numpy"]
    assert "scipy" in _requirement_names(project["optional-dependencies"]["dev"])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_probe(code, **preset):
    """Run `code` in a fresh interpreter with only `preset` of the BLAS thread
    variables set; return what it prints, parsed as JSON."""
    package = Path(twinchain.__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


_THREADS_PROBE = (
    "import json, os, sys, twinchain.cli\n"
    "status = '/proc/self/status'\n"
    "threads = ([int(l.split()[1]) for l in open(status) if l.startswith('Threads:')][0]\n"
    "           if os.path.exists(status) else None)\n"
    f"print(json.dumps([{{k: os.environ[k] for k in {BLAS_THREAD_VARS!r} if k in os.environ}},\n"
    "                  'numpy' in sys.modules, threads]))\n")


class TestStartup:
    # OpenBLAS skips an empty variable, so the CLI does too; the pin lasts
    # only while numpy loads, so child processes see the caller's variables
    @pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": ""},
                                        {"OPENBLAS_NUM_THREADS": ""}])
    def test_cli_starts_one_blas_thread(self, preset):
        env, numpy_loaded, threads = _fresh_probe(_THREADS_PROBE, **preset)
        assert numpy_loaded
        assert env == preset
        if sys.platform.startswith("linux"):
            assert threads == 1

    @pytest.mark.parametrize("preset", [{"OMP_NUM_THREADS": "2"},
                                        {"OPENBLAS_NUM_THREADS": "2"}])
    def test_caller_thread_setting_is_kept(self, preset):
        env, _, _ = _fresh_probe(_THREADS_PROBE, **preset)
        assert env == preset

    def test_package_import_loads_no_numpy(self):
        probe = "import json, sys, twinchain; print(json.dumps('numpy' in sys.modules))"
        assert _fresh_probe(probe) is False

    def test_relaxation_skips_numpy_ma(self, tmp_path):
        # numpy.ma loads on first use of numpy's set routines (np.unique and
        # what calls it), about 12 ms and 1.5 MiB that no command needs
        probe = ("import json, sys\n"
                 "from twinchain.cli import main\n"
                 f"code = main(['minimize', '--n', '8', '--out', {str(tmp_path)!r}])\n"
                 "print(json.dumps([code, 'numpy.ma' in sys.modules]))")
        assert _fresh_probe(probe) == [0, False]

    def test_exports_are_the_submodule_objects(self):
        for module, names in twinchain._EXPORTS.items():
            submodule = importlib.import_module(f"twinchain.{module}")
            # a stale __all__ name would break `from twinchain.<module> import *`
            assert set(names) <= set(submodule.__all__)
            assert all(hasattr(submodule, name) for name in submodule.__all__)
            for name in names:
                assert getattr(twinchain, name) is getattr(submodule, name)
        assert len(set(twinchain.__all__)) == len(twinchain.__all__) == 43
        assert set(twinchain.__all__) <= set(dir(twinchain))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            twinchain.no_such_name
        with pytest.raises(ImportError):
            from twinchain import no_such_name  # noqa: F401


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

    def test_header_is_the_input_snapshot_config(self, tmp_path):
        assert run("minimize", "--a", 2, "--n", 12, "--out", tmp_path / "run") == 0
        assert run("fit-decay", "--chain", tmp_path / "run" / "chain-n12.txt",
                   "--reference", tmp_path / "run" / "reference-n12.txt",
                   "--lo", 2, "--hi", 10, "--out", tmp_path) == 0
        first = (tmp_path / "fit-decay.csv").read_text().splitlines()[0]
        assert first == "# config a=2 lambda=0.5 n=[12] variable_tau=0"

    @pytest.mark.parametrize("case, message", [
        ("missing-chain", "absent.txt"),
        ("other-n", "chains must share the same lattice geometry"),
        ("short-window", "window holds 3 points"),
        ("header-only", "header-only.txt"),
        ("head-without-a", "head-without-a.txt"),
        ("two-field-row", "two-field-row.txt"),
        ("nan-atom", "non-finite value in atom row 0"),
        ("inf-atom", "non-finite value in atom row 0"),
    ], ids=["missing-chain", "other-n", "short-window", "header-only",
            "head-without-a", "two-field-row", "nan-atom", "inf-atom"])
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
            # stretch, an atom row cut to two fields, atom 0's ux not finite
            if case == "header-only":
                lines = lines[:1]
            elif case == "head-without-a":
                head = json.loads(lines[1][2:])
                del head["a"]
                lines[1] = "# " + json.dumps(head)
            elif case == "two-field-row":
                lines[5] = ",".join(lines[5].split(",")[:2])
            else:
                row = next(k for k, line in enumerate(lines) if line.startswith("0,"))
                fields = lines[row].split(",")
                fields[1] = case[:3]
                lines[row] = ",".join(fields)
            chain = tmp_path / f"{case}.txt"
            chain.write_text("\n".join(lines) + "\n")
        code = run("fit-decay", "--chain", chain, "--reference", reference,
                   "--lo", lo, "--hi", hi, "--out", tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err


# the flags each subcommand takes: the ones its cmd_* reads
_RELAX_FLAGS = {"--a", "--lambda", "--n", "--variable-tau", "--out"}
SUBCOMMAND_FLAGS = {
    "minimize": _RELAX_FLAGS,
    "scan": _RELAX_FLAGS | {"--svg"},
    "diagnose": _RELAX_FLAGS | {"--alpha", "--delta"},
    "layers": {"--a", "--lambda", "--quick", "--out"},
    "fit-decay": {"--chain", "--reference", "--lo", "--hi", "--out"},
}
VALUED_FLAGS = {"--a", "--lambda", "--n", "--alpha", "--delta"}
# every subcommand once took all of these
_FORMER_SHARED_FLAGS = VALUED_FLAGS | {"--variable-tau", "--quick", "--svg", "--out"}
REMOVED_FLAGS = [(command, flag) for command, taken in SUBCOMMAND_FLAGS.items()
                 for flag in sorted(_FORMER_SHARED_FLAGS - taken)]


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ("minimize", "--lambda", "2"),
        ("minimize", "--lambda", "0"),
        ("minimize", "--a", "1"),
        ("minimize", "--n", "4"),
        ("diagnose", "--alpha", "1.5"),
        ("diagnose", "--delta", "0.3"),
        ("minimize", "--seed", "1"),
        ("minimize", "--a", "1.0000000000001"),
        ("minimize", "--a", "1e-4"),
        ("minimize", "--a", "1e200"),
        ("scan", "--config", "c.json"),
    ])
    def test_usage_errors_exit_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(*argv, "--out", tmp_path)
        assert err.value.code == 2

    def test_subcommand_flags(self):
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {command: {s for action in parser._actions
                           for s in action.option_strings} - {"-h", "--help"}
                 for command, parser in sub.choices.items()}
        assert flags == SUBCOMMAND_FLAGS
        assert sum(len(f) for f in flags.values()) == 27
        assert len(REMOVED_FLAGS) == 49 - 27

    @pytest.mark.parametrize("command, names", [
        ("minimize", ["a", "lambda", "n", "variable_tau"]),
        ("scan", ["a", "lambda", "n", "variable_tau", "svg"]),
        ("diagnose", ["a", "lambda", "n", "variable_tau", "alpha", "delta"]),
        ("layers", ["a", "lambda", "quick"]),
        ("fit-decay", []),
    ])
    def test_header_names_the_subcommand_flags(self, command, names):
        argv = [command] + (["--chain", "c", "--reference", "r", "--lo", "2", "--hi", "6"]
                            if command == "fit-decay" else [])
        args = cli._build_parser().parse_args(argv)
        head = ExperimentConfig().header(args.settings)
        assert head.startswith("config")
        assert re.findall(r"(\w+)=", head) == names

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                             ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys,
                                                       command, flag):
        argv = [command, flag] + (["0.5"] if flag in VALUED_FLAGS else [])
        if command == "fit-decay":
            argv += ["--chain", "c.txt", "--reference", "r.txt", "--lo", 2, "--hi", 6]
        with pytest.raises(SystemExit) as err:
            run(*argv, "--out", tmp_path)
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        lines = [line for block in blocks
                 for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("twinchain ")]
        assert len(lines) >= 8
        parser = cli._build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    @pytest.mark.parametrize("below", ["", "runs"], ids=["the-file", "below-the-file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, below):
        taken = tmp_path / "taken.txt"
        taken.write_text("kept\n")
        with pytest.raises(SystemExit) as err:
            run("scan", "--n", 8, "--out", taken / below)
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and "--out" in errors[0] and str(taken) in errors[0]
        assert taken.read_text() == "kept\n"

    def test_quick_defaults_small_size(self):
        # config resolution is exercised through the header string
        assert ExperimentConfig().n_list == (40, 100, 200)

    def test_svg_writer_spans_data(self, tmp_path):
        path = tmp_path / "p.svg"
        write_svg_polyline(path, [1.0, 2.0, 4.0], [3.0, 1.0, 2.0], title="t")
        text = path.read_text()
        assert "polyline" in text and "<svg" in text
        assert text.count("<line") == 2
