"""CLI subcommands and exit codes."""

import re
from pathlib import Path

import numpy as np
import pytest

from edmdmap import edmd
from edmdmap.bench import CONFIG_KEYS, parse_config, read_records
from edmdmap.cli import main

SKEW = repr(float(1.0 / np.sqrt(2.0)))


@pytest.fixture
def skewed_cfg(tmp_path):
    path = tmp_path / "skewed.cfg"
    path.write_text(
        f"map = skewed_doubling\na = {SKEW}\nbasis = monomials\n"
        "N = 5\nM = inf\neigen_indices = 0,1,2\n"
    )
    return str(path)


def test_spectrum_exit_zero(tmp_path, capsys):
    path = tmp_path / "cell.cfg"
    path.write_text(f"map = skewed_doubling\na = {SKEW}\nbasis = monomials\nN = 5\nM = inf\n")
    assert main(["spectrum", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "delta" in out and "M=inf" in out
    assert len(out.strip().splitlines()) == 7  # two header lines + full N=5 spectrum


def test_spectrum_multi_cell_grid_exit_one(tmp_path, capsys):
    path = tmp_path / "grid.cfg"
    path.write_text(f"map = skewed_doubling\na = {SKEW}\nN = 5,10\nM = 100,inf\n")
    assert main(["spectrum", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert "'N'" in captured.err and "'M'" in captured.err


def test_sweep_writes_csv(skewed_cfg, tmp_path, capsys):
    out_csv = str(tmp_path / "out.csv")
    assert main(["sweep", "--config", skewed_cfg, "--out", out_csv]) == 0
    records = read_records(out_csv)
    assert len(records) == 3
    assert all(rec.status == "ok" for rec in records)


def test_figure_command(tmp_path):
    out_csv = str(tmp_path / "fig.csv")
    assert main(["figure", "--name", "fig1.1R", "--out", out_csv]) == 0
    records = read_records(out_csv)
    assert {rec.n_observables for rec in records} == {5, 10}
    assert len(records) == 15


def test_figure_radius_schema(tmp_path):
    out_csv = tmp_path / "f25.csv"
    assert main(["figure", "--name", "fig2.5", "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "a,N,abs_lambda1,essential_radius,product_lnl1_lnN"


def test_bounds_report(tmp_path, capsys):
    path = tmp_path / "bounds.cfg"
    path.write_text(
        f"map = skewed_doubling\na = {SKEW}\nN = 5,8\nM = 200\nr = 2.71\nR_disk = 3.0\n"
    )
    assert main(["bounds", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "schedule regime" in out
    assert "projection bound" in out
    assert "pseudoinverse growth diagnostic" in out


def test_missing_config_exit_one(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_bad_config_exit_one(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("map = unknown_map\nN = 3\nM = 10\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1


BASE = "map = skewed_doubling\na = 0.5\nN = 3\nM = 10\n"


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param(BASE + "eigen_indice = 0\n", "eigen_indice", id="misspelt-key"),
        pytest.param(BASE + "r = 1.05\nR = 1.4\n", "R", id="R-alias"),
        pytest.param(BASE.replace("N = 3", "N = 1.5"), "N", id="N-float"),
        pytest.param(BASE + "eigen_indices = -1\n", "eigen_indices", id="negative-index"),
        pytest.param(BASE + "eps_pinv = nan\n", "eps_pinv", id="eps-nan"),
        pytest.param(BASE.replace("N = 3", "N = 0") + "eigen_indices = all\n", "N",
                     id="N-zero"),
        pytest.param(BASE.replace("M = 10", "M = 0"), "M", id="M-zero"),
        pytest.param(BASE.replace("N = 3", "N = 4") + "basis = fourier\n", "N",
                     id="fourier-even-N"),
        pytest.param(BASE.replace("M = 10", "schedule = corollary1(0.5)"), "schedule",
                     id="schedule-rate"),
        pytest.param(BASE + "node_rule = offset\ndelta = 0.25\n", "delta",
                     id="delta-above-2-over-M"),
        pytest.param(BASE + "mu = 0.3\n", "mu", id="mu-on-skewed-doubling"),
        # samples is no longer a key, so it is rejected as unknown
        pytest.param(BASE + "samples = 4096.7\n", "samples", id="samples-float"),
        pytest.param(BASE + "r = 1.05\n", "r", id="r-without-R_disk"),
        pytest.param(BASE + "out = x.csv\n", "out", id="out-key"),
    ],
)
def test_bad_config_rejected_at_parse_time(tmp_path, capsys, text, key):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out_csv = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out_csv)]) == 1
    assert not out_csv.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err


def test_readme_config_block_matches_key_table(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Configuration format", 1)[1].split("```")[1]
    assert set(parse_config(block)) <= set(CONFIG_KEYS)
    for key in CONFIG_KEYS:  # keys without a sample value appear in its comments
        assert re.search(rf"\b{key} = ", block), key
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert main(["bounds", "--config", str(path)]) == 0


def test_bounds_rho_outside_disk_exit_one(tmp_path, capsys):
    path = tmp_path / "rho.cfg"
    path.write_text(
        f"map = skewed_doubling\na = {SKEW}\nN = 5\nr = 2.71\nR_disk = 3.0\nrho = 3.5\n"
    )
    assert main(["bounds", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "'rho'" in captured.err


def test_bounds_measures_on_configured_nodes(tmp_path, capsys):
    base = f"map = skewed_doubling\na = {SKEW}\nN = 5,8\nM = 200\n"
    reports = []
    for text in (base, base + "node_rule = offset\ndelta = 0.0\n"):
        path = tmp_path / "bounds.cfg"
        path.write_text(text)
        assert main(["bounds", "--config", str(path)]) == 0
        reports.append([line for line in capsys.readouterr().out.splitlines()
                        if "||H-H^(M)||" in line])
    midpoint, offset = reports
    assert len(midpoint) == len(offset) == 2
    assert all(a != b for a, b in zip(midpoint, offset))


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\nbasis = fourier\n", "basis",
                     id="basis-fourier"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\nrho = 1.2\n", "rho",
                     id="rho-without-r"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\neps_pinv = 0.5\n", "eps_pinv",
                     id="eps_pinv"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\nquad_order = 3\n", "quad_order",
                     id="quad_order"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\neigen_indices = 0\n",
                     "eigen_indices", id="eigen_indices"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\nL_method = cauchy\n",
                     "L_method", id="L_method"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\nsample_radius = 1.5\n",
                     "sample_radius", id="sample_radius"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nN = 5\nsamples = 16\n", "samples",
                     id="samples"),
    ],
)
def test_bounds_unread_key_exit_one(tmp_path, capsys, text, key):
    path = tmp_path / "bounds.cfg"
    path.write_text(text)
    assert main(["bounds", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and repr(key) in captured.err


FOURIER_41 = "map = blaschke\nmu = 0.3\nbasis = fourier\nN = 41\n"


def test_numerical_failure_exit_two(tmp_path, capsys, monkeypatch):
    # Fourier N = 41 on Blaschke needs quadrature order 256, above this ceiling
    monkeypatch.setattr(edmd, "_MAX_QUAD_ORDER", 128)
    path = tmp_path / "blaschke.cfg"
    path.write_text(FOURIER_41 + "M = inf\n")
    assert main(["spectrum", "--config", str(path)]) == 2
    assert "QuadratureError" in capsys.readouterr().out


def test_partial_sweep_exit_three(tmp_path, monkeypatch):
    monkeypatch.setattr(edmd, "_MAX_QUAD_ORDER", 128)
    path = tmp_path / "partial.cfg"
    path.write_text(FOURIER_41 + "M = 100,inf\n")
    out_csv = str(tmp_path / "partial.csv")
    assert main(["sweep", "--config", str(path), "--out", out_csv]) == 3
    statuses = {rec.m_nodes: rec.status for rec in read_records(out_csv)}
    assert statuses[100] == "ok"
    assert statuses[None].startswith("QuadratureError")


def test_fourier_blaschke_infinite_cells_settle(tmp_path):
    # the quadrature order doubles past the default until the cross matrix settles
    path = tmp_path / "fourier.cfg"
    path.write_text("map = blaschke\nmu = 0.3\nbasis = fourier\nN = 41,61,81\nM = inf\n")
    out_csv = str(tmp_path / "fourier.csv")
    assert main(["sweep", "--config", str(path), "--out", out_csv]) == 0
    records = read_records(out_csv)
    assert [rec.n_observables for rec in records] == [41, 61, 81]
    assert all(rec.status == "ok" for rec in records)


def test_spectrum_with_transfer_companion(tmp_path, capsys):
    path = tmp_path / "lm.cfg"
    path.write_text(
        f"map = skewed_doubling\na = {SKEW}\nN = 6\nM = inf\nL_method = auto\n"
    )
    assert main(["spectrum", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "transfer matrix L_N spectrum" in out
    assert "affine_closed_form" in out


def test_bad_transfer_method_exit_one(tmp_path):
    path = tmp_path / "lm.cfg"
    path.write_text(f"map = skewed_doubling\na = {SKEW}\nN = 6\nM = inf\nL_method = qr\n")
    assert main(["spectrum", "--config", str(path)]) == 1


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nL_method = cauchy\nrho = -1\n",
                     "rho", id="cauchy-rho-negative"),
        # samples is no longer a key, so it is rejected as unknown
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nL_method = cauchy\nsamples = 16\n",
                     "samples", id="cauchy-samples-below-4N"),
        pytest.param("map = blaschke\nmu = 0.3\nL_method = affine\n", "L_method",
                     id="affine-on-blaschke"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nL_method = cauchy\nrho = nan\n",
                     "rho", id="cauchy-rho-nan"),
        pytest.param(f"map = skewed_doubling\na = {SKEW}\nL_method = cauchy\n"
                     "sample_radius = nan\n", "sample_radius", id="cauchy-sample-radius-nan"),
        *(
            pytest.param(f"map = blaschke\nmu = 0.3\nL_method = cauchy\n{key} = {value}\n",
                         key, id=f"cauchy-{key}-{value}")
            for key, value in (("rho", "1e300"), ("rho", "1e-300"), ("rho", "inf"),
                               ("sample_radius", "1e-300"), ("sample_radius", "inf"))
        ),
    ],
)
def test_bad_transfer_keys_exit_one_before_output(tmp_path, capsys, text, key):
    path = tmp_path / "lm.cfg"
    path.write_text("N = 6\nM = inf\n" + text)
    assert main(["spectrum", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:") and repr(key) in captured.err


GRID = f"map = skewed_doubling\na = {SKEW}\nN = 5\nM = 100\n"
CELL = f"map = skewed_doubling\na = {SKEW}\nN = 6\nM = inf\n"


@pytest.mark.parametrize(
    "command, text, key",
    [
        pytest.param("sweep", GRID + "r = 1.05\nR_disk = 1.4\n", "r", id="sweep-r"),
        pytest.param("sweep", GRID + "R_disk = 1.4\nr = 1.05\n", "R_disk", id="sweep-R_disk"),
        pytest.param("sweep", GRID + "L_method = cauchy\n", "L_method", id="sweep-L_method"),
        pytest.param("sweep", GRID + "rho = 1.2\n", "rho", id="sweep-rho"),
        pytest.param("sweep", GRID + "sample_radius = 1.5\n", "sample_radius",
                     id="sweep-sample_radius"),
        pytest.param("sweep", GRID + "samples = 4096\n", "samples", id="sweep-samples"),
        pytest.param("spectrum", CELL + "r = 1.05\nR_disk = 1.4\n", "r", id="spectrum-r"),
        pytest.param("spectrum", CELL + "R_disk = 1.4\nr = 1.05\n", "R_disk",
                     id="spectrum-R_disk"),
        pytest.param("spectrum", CELL + "rho = 1.2\n", "rho", id="spectrum-rho-without-L_method"),
        pytest.param("spectrum", CELL + "L_method = affine\nsamples = 4096\n", "samples",
                     id="spectrum-samples-affine"),
        pytest.param("spectrum", CELL + "L_method = auto\nsample_radius = 1.1\n",
                     "sample_radius", id="spectrum-sample_radius-auto-affine"),
        pytest.param("spectrum", CELL + "eigen_indices = 0,1\n", "eigen_indices",
                     id="spectrum-eigen_indices"),
    ],
)
def test_command_unread_key_exit_one(tmp_path, capsys, command, text, key):
    path = tmp_path / "unread.cfg"
    path.write_text(text)
    out_csv = tmp_path / "x.csv"
    argv = [command, "--config", str(path)] + (["--out", str(out_csv)] if command == "sweep" else [])
    assert main(argv) == 1
    assert not out_csv.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:") and repr(key) in captured.err


def test_every_config_key_read_by_a_command():
    for key, (_, commands) in CONFIG_KEYS.items():
        assert commands and set(commands) <= {"sweep", "spectrum", "bounds"}, key


def test_accepted_command_key_pairs():
    # a new config key, or a key read by one more command, must edit this set
    shared = ("map", "a", "mu", "basis", "N", "M", "schedule", "node_rule", "delta")
    expected = {(command, key) for command in ("sweep", "spectrum", "bounds") for key in shared}
    expected |= {
        ("sweep", "eps_pinv"), ("spectrum", "eps_pinv"), ("sweep", "eigen_indices"),
        ("spectrum", "L_method"), ("spectrum", "rho"), ("spectrum", "sample_radius"),
        ("bounds", "r"), ("bounds", "R_disk"), ("bounds", "rho"),
    }
    accepted = {(command, key) for key, (_, commands) in CONFIG_KEYS.items() for command in commands}
    assert accepted == expected and len(accepted) == 36


def test_readme_cli_lines_match_help(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = {line.split()[1]: line for line in block.splitlines() if line.startswith("edmdmap ")}
    assert set(lines) == {"spectrum", "sweep", "figure", "bounds"}
    for command, line in lines.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", line)) == help_flags, command
