"""End-to-end runs of every subcommand through main(argv), and in fresh
interpreters."""
import argparse
import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sfvem
from sfvem import analysis
from sfvem.analysis import SpectralAudit
from sfvem.cli import _build_parser, main
from sfvem.mesh import read_mesh, write_mesh

from meshes import hanging_node_grid

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# the benchmark's stored compare rows, per workload and mesh seed
REFERENCE = ROOT / "perfbench" / "reference.json"

TRIANGLE_POLY = "0.0 0.0\n1.0 0.0\n0.4 0.9\n"
NEEDLE_POLY = "0.0 0.0\n1.0 0.0\n0.5 1e-7\n"
# four triangles around the center vertex, which sits on line 7
FOUR_TRIANGLES = """vem-mesh 1
vertices 5
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
{center}
cells 4
3 0 1 4
3 1 2 4
3 2 3 4
3 3 0 4
boundary 4
0
1
2
3
"""


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# generate-mesh


def test_generate_grid_mesh(tmp_path, capsys):
    code = run("generate-mesh", "--n", "4", "--delta", "0.2", "--seed", "5",
               "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "25 vertices" in out and "16 cells" in out
    mesh = read_mesh(tmp_path / "mesh.txt")
    assert mesh.n_cells == 16


def test_generate_voronoi_mesh(tmp_path):
    code = run("generate-mesh", "--generator", "voronoi", "--seeds", "12",
               "--lloyd-iters", "1", "--seed", "3", "--out", str(tmp_path))
    assert code == 0
    mesh = read_mesh(tmp_path / "mesh.txt")
    assert mesh.n_cells == 12


def test_generate_mesh_bad_delta(tmp_path, capsys):
    code = run("generate-mesh", "--delta", "0.9", "--out", str(tmp_path))
    assert code == 1
    assert "delta" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    for argv in (("generate-mesh", "--sides", "4"),
                 ("solve", "--quad-degree", "4"),
                 ("convergence", "--mesh", "/nonexistent.txt"),
                 ("convergence", "--method", "sfvem"),
                 ("compare", "--method", "vem"),
                 ("solve", "--method", "both")):
        assert run(*argv) == 1
        assert "error" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    assert run() == 1


def test_readme_flag_table_matches_parser():
    # README's command line table lists each subcommand's flags literally
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"\| `([a-z-]+)` \| `([^|]*)` \|", line)
        if m:
            rows[m.group(1)] = set(m.group(2).split())
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {
        name: {opt for action in parser._actions for opt in action.option_strings}
        - {"-h", "--help", "--config"}
        for name, parser in sub.choices.items()
    }
    assert rows == registered


# ---------------------------------------------------------------------------
# check-polygon


def test_check_polygon_default_catalog(tmp_path, capsys):
    code = run("check-polygon", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("name,N_E,ell_E")
    out = capsys.readouterr().out
    assert out.count("sigma_r/sigma_max") == 18
    assert "[FAIL]" not in out


def test_check_polygon_exploratory_offset(tmp_path, capsys):
    code = run("check-polygon", "--ell-offset", "-1", "--out", str(tmp_path))
    assert code == 0  # exploratory runs warn instead of failing
    captured = capsys.readouterr()
    assert "below rule, exploratory" in captured.out
    assert "instability is expected" in captured.err


def test_check_polygon_single_file(tmp_path, capsys):
    poly = tmp_path / "triangle.poly"
    poly.write_text(TRIANGLE_POLY)
    code = run("check-polygon", "--polygon", str(poly), "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "triangle"
    assert fields[1] == "3" and fields[2] == "0"


def test_check_polygon_needle_fails_audit(tmp_path, capsys):
    poly = tmp_path / "needle.poly"
    poly.write_text(NEEDLE_POLY)
    code = run("check-polygon", "--polygon", str(poly), "--out", str(tmp_path))
    assert code == 2
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "fell below" in captured.err


def test_check_polygon_gates_the_kernel(tmp_path, capsys, monkeypatch):
    # margin 1e-3 passes; a second near-null direction at 1e-9 must not
    def leaky_kernel(poly, ell):
        return SpectralAudit(poly.name, poly.n_vertices, ell,
                             np.array([1.0, 1e-3, 1e-9]))

    monkeypatch.setattr(analysis, "spectral_audit", leaky_kernel)
    poly = tmp_path / "triangle.poly"
    poly.write_text(TRIANGLE_POLY)
    code = run("check-polygon", "--polygon", str(poly), "--out", str(tmp_path))
    assert code == 2
    captured = capsys.readouterr()
    assert "sigma_min/sigma_max=1.000e-09  [FAIL]" in captured.out
    assert "sigma_min/sigma_max above 1e-11" in captured.err


def test_check_polygon_rejects_clockwise_file(tmp_path, capsys):
    poly = tmp_path / "cw.poly"
    poly.write_text("0.0 0.0\n0.4 0.9\n1.0 0.0\n")
    code = run("check-polygon", "--polygon", str(poly), "--out", str(tmp_path))
    assert code == 1
    assert "counterclockwise" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("nan 1", "non-finite coordinate"),
    ("inf 1", "non-finite coordinate"),
    ("1.0 x", "bad coordinate"),
])
def test_check_polygon_rejects_bad_coordinate_with_line(tmp_path, capsys, line,
                                                         message):
    poly = tmp_path / "bad.poly"
    poly.write_text(f"0.0 0.0\n{line}\n0.4 0.9\n")
    code = run("check-polygon", "--polygon", str(poly), "--out", str(tmp_path))
    assert code == 1
    assert f"{poly}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_mesh_file_rejected_with_line(tmp_path, capsys, value):
    mesh = tmp_path / "mesh.txt"
    mesh.write_text(FOUR_TRIANGLES.format(center=f"{value} 0.5"))
    out = tmp_path / "out"
    for argv in (("generate-mesh",), ("solve", "--problem", "bubble")):
        code = run(*argv, "--mesh", str(mesh), "--out", str(out))
        assert code == 1
        assert "line 7: non-finite coordinate" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve


def test_solve_poisson_grid(tmp_path, capsys):
    code = run("solve", "--problem", "poisson", "--n", "16", "--out",
               str(tmp_path))
    assert code == 0
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "vertex_index,x,y,u_h"
    assert len(lines) == 1 + 289
    # boundary rows carry exact zeros
    for fields in (ln.split(",") for ln in lines[1:]):
        x, y, uh = float(fields[1]), float(fields[2]), float(fields[3])
        if x in (0.0, 1.0) or y in (0.0, 1.0):
            assert uh == 0.0
    assert "residual" in capsys.readouterr().out


def test_solve_benchmark_on_mesh_file(tmp_path, capsys):
    assert run("generate-mesh", "--generator", "voronoi", "--seeds", "30",
               "--seed", "9", "--out", str(tmp_path)) == 0
    code = run("solve", "--mesh", str(tmp_path / "mesh.txt"), "--out",
               str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    residual = float(out.rsplit("residual=", 1)[1])
    assert residual <= 1e-10


def test_solve_on_hanging_node_mesh_file(tmp_path, capsys):
    # a corner hexagon with three collinear vertices, not star shaped about
    # its vertex average
    write_mesh(hanging_node_grid(), tmp_path / "mesh.txt")
    code = run("solve", "--mesh", str(tmp_path / "mesh.txt"), "--out",
               str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert float(out.rsplit("residual=", 1)[1]) <= 1e-10


def test_solve_missing_mesh_file(tmp_path, capsys):
    code = run("solve", "--mesh", str(tmp_path / "nope.txt"), "--out",
               str(tmp_path))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_mesh_with_no_cells_is_an_error_line(tmp_path, capsys):
    mesh = tmp_path / "empty.txt"
    mesh.write_text("vem-mesh 1\nvertices 0\ncells 0\nboundary 0\n")
    code = run("solve", "--mesh", str(mesh), "--problem", "bubble", "--out",
               str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mesh has no cells" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_solve_non_finite_theta_names_k(tmp_path, capsys, theta):
    # rejected by the config check, before numpy's cos and sin see it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("solve", "--theta", theta, "--n", "4", "--out", str(tmp_path))
    assert code == 1
    assert "K must be finite" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_solve_vem_method(tmp_path, capsys):
    code = run("solve", "--problem", "bubble", "--method", "vem", "--n", "6",
               "--out", str(tmp_path))
    assert code == 0
    assert "method=vem" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# convergence / compare


def test_convergence_bubble_two_levels(tmp_path, capsys):
    code = run("convergence", "--problem", "bubble", "--levels", "4,8",
               "--delta", "0.2", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0].startswith("level,h,ndof")
    assert len(lines) == 3
    out = capsys.readouterr().out
    assert "sfvem: alpha0=" in out and "\nvem: alpha0=" in out
    svg = (tmp_path / "convergence.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") >= 4  # e0, e1 for both methods
    assert "rate" in svg


def test_convergence_single_level_skips_rates(tmp_path, capsys):
    code = run("convergence", "--problem", "bubble", "--levels", "6",
               "--out", str(tmp_path))
    assert code == 0
    assert "rate fitting skipped" in capsys.readouterr().out
    assert not (tmp_path / "convergence.svg").exists()


def test_convergence_requires_exact_solution(tmp_path, capsys):
    code = run("convergence", "--problem", "poisson", "--levels", "4,8",
               "--out", str(tmp_path))
    assert code == 1
    assert "exact solution" in capsys.readouterr().err


def test_compare_forces_both_methods(tmp_path, capsys):
    # compare is convergence under another name; a study runs both methods
    # whatever method a config file sets
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = vem\n")
    for command in ("convergence", "compare"):
        code = run(command, "--config", str(cfg), "--problem", "bubble",
                   "--levels", "3,6", "--delta", "0.1",
                   "--out", str(tmp_path / command))
        assert code == 0
        out = capsys.readouterr().out
        assert "sfvem: alpha0=" in out and "\nvem: alpha0=" in out
    for name in ("convergence.csv", "convergence.svg"):
        assert ((tmp_path / "convergence" / name).read_bytes()
                == (tmp_path / "compare" / name).read_bytes())


def test_convergence_byte_identical_reruns(tmp_path):
    args = ("convergence", "--problem", "bubble", "--levels", "3,5",
            "--delta", "0.2", "--seed", "11")
    assert run(*args, "--out", str(tmp_path / "a")) == 0
    assert run(*args, "--out", str(tmp_path / "b")) == 0
    csv_a = (tmp_path / "a" / "convergence.csv").read_bytes()
    csv_b = (tmp_path / "b" / "convergence.csv").read_bytes()
    assert csv_a == csv_b
    svg_a = (tmp_path / "a" / "convergence.svg").read_bytes()
    svg_b = (tmp_path / "b" / "convergence.svg").read_bytes()
    assert svg_a == svg_b


@pytest.mark.parametrize("args", [
    ("compare", "--problem", "benchmark", "--generator", "voronoi", "--levels", "4,6",
     "--seed", "9"),
    ("solve", "--problem", "benchmark", "--n", "6", "--delta", "0.3", "--seed", "9"),
    ("check-polygon", "--ell-offset", "1"),
], ids=["compare", "solve", "check-polygon"])
def test_outputs_byte_identical_across_interpreters(tmp_path, args):
    # each run in its own interpreter, so nothing a process keeps (imports,
    # BLAS state, allocations) is shared between the two
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfvem.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "sfvem.cli", *args, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("workload, generator", [("grid-compare", "grid"),
                                                 ("voronoi-compare", "voronoi")])
def test_compare_stays_within_the_stored_reference(tmp_path, workload, generator):
    # the build and the error pass add in another order than the code that
    # made the benchmark's reference; every error stays within its 1e-10
    stored = json.loads(REFERENCE.read_text())[workload]["3"]["rows"][:2]
    code = run("compare", "--problem", "benchmark", "--generator", generator,
               "--levels", "8,16", "--seed", "3", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "convergence.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["level"]) for r in rows] == [r["level"] for r in stored] == [8, 16]
    for row, ref in zip(rows, stored):
        for key in ("e0_sfvem", "e1_sfvem", "e0_vem", "e1_vem"):
            assert abs(float(row[key]) - ref[key]) <= 1e-10 * abs(ref[key]), (
                row["level"], key)


def test_convergence_voronoi_generator(tmp_path, capsys):
    code = run("convergence", "--problem", "bubble", "--generator", "voronoi",
               "--levels", "3,6", "--seed", "2", "--distortion", "0.1",
               "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "convergence.csv").exists()


# ---------------------------------------------------------------------------
# config file


def test_config_file_applies_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "problem = bubble\n"
        "levels = 3, 5\n"
        "delta = 0.1\n"
        "n = 4\n"
    )
    code = run("convergence", "--config", str(cfg), "--levels", "4,8",
               "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    # flag levels 4,8 beat the file's 3,5
    assert lines[1].split(",")[0] == "4"
    assert lines[2].split(",")[0] == "8"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text in ("mesh_size = 4\n", "quad_degree = 4\n", "command = solve\n"):
        cfg.write_text(text)
        code = run("generate-mesh", "--config", str(cfg), "--out",
                   str(tmp_path))
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta 0.2\n")
    code = run("generate-mesh", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n = abc", "levels = 4,x"])
def test_config_file_bad_value_names_its_line(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run("convergence", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert f"{cfg}:1: " in capsys.readouterr().err
