"""The seven bundled figure data sets, pinned in tests/data.

tests/data/<name>.csv is the output of ``edmdmap figure --name <name>``
without its ``wall_ms`` column.  Each test regenerates one recipe and
compares it with that file row by row; on a mismatch it lists every
differing row with the stored and the regenerated values.
tests/data/readme_bounds.txt is the standard output of ``edmdmap bounds``
on the README's config block, compared byte for byte.
tests/data/circle_decisions.txt holds one line per circle case near the
boundaries of the two analyticity ladders: what the Cauchy L_N settles at
(its ``method``) and what the ``bounds`` disk gives (the ``repr`` of
``derivative_sum_estimate``), or the class of the error raised; it is
compared exactly.  A change that moves rows on purpose regenerates all
nine files with

    PYTHONPATH=src python tests/test_figure_data.py

and lists the moved rows in CHANGES.md.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest

from edmdmap.bench import (
    FIGURE_NAMES,
    figure_recipe,
    fourier_radius_study,
    run_sweep,
    write_radius_records,
    write_records,
)
from edmdmap.cli import main
from edmdmap.errors import EdmdMapError
from edmdmap.maps import make_blaschke, make_skewed_doubling
from edmdmap.transfer import derivative_sum_estimate, transfer_matrix_analytic

from test_transfer import pole_map, tent_map

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
RTOL = 1e-9

# sweep CSV columns without wall_ms:
# N, M, n, re_approx, im_approx, re_exact, im_exact, delta, delta_rank_paired, eps_rank, status
EXACT_COLUMNS = (0, 1, 2, 9, 10)

CIRCLE_MAPS = {
    "blaschke(0.3)": make_blaschke(0.3),
    "blaschke(0.2)": make_blaschke(0.2),
    "blaschke(-0.3)": make_blaschke(-0.3),
    "skewed(0.4)": make_skewed_doubling(0.4),
    "tent": tent_map(),
    "pole(0.01@1.05)": pole_map(0.01, 1.05),
    "pole(0.01@1.15)": pole_map(0.01, 1.15),
    "pole(0.002@1.12)": pole_map(0.002, 1.12),
    "pole(0.01@1.3)": pole_map(0.01, 1.3),
}
# (map, N, sample radius): branch points, cuts of the sum, poles on either
# side of the circle, and radii below 1 where the entries carry radius^-k;
# radius 2.2 and 1e-300 are pinned by tests/test_transfer.py
CAUCHY_CASES = [
    *(("blaschke(0.3)", n, radius) for n, radius in (
        (25, 1.1), (25, 1.19), (60, 1.19), (25, 1.5), (40, 1.5), (25, 1.8),
        (25, 2.0), (15, 0.3), (25, 0.5), (40, 0.5), (60, 1.0))),
    ("blaschke(0.2)", 60, 1.1), ("skewed(0.4)", 25, 1.5), ("tent", 20, 1.1),
    *(("pole(0.01@1.05)", 10, radius) for radius in (1.02, 1.1, 1.2, 1.5)),
    ("pole(0.01@1.15)", 10, 1.1), ("pole(0.002@1.12)", 10, 1.1),
    ("pole(0.01@1.3)", 10, 1.1), ("pole(0.01@1.3)", 40, 1.02),
]
# (map, R_disk) for derivative_sum_estimate; R_disk = 1e300 is pinned by
# tests/test_transfer.py and tests/test_maps.py
DISK_CASES = [
    *(("blaschke(0.3)", radius) for radius in (1.1, 1.175, 1.18, 1.19, 1.192, 1.1925, 1.193, 1.4)),
    ("blaschke(-0.3)", 1.15), ("blaschke(0.2)", 1.2),
    ("skewed(0.4)", 2.0), ("skewed(0.4)", 100.0), ("tent", 100.0),
    *(("pole(0.01@1.05)", radius) for radius in (1.02, 1.1, 1.5)),
    *(("pole(0.01@1.3)", radius) for radius in (1.1, 1.2, 1.5)),
]


def figure_rows(name: str) -> list[list[str]]:
    """The CSV rows of ``edmdmap figure --name name``, header first,
    without the ``wall_ms`` column."""
    recipe = figure_recipe(name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "figure.csv"
        if recipe[0] == "radius":
            write_radius_records(fourier_radius_study(*recipe[1:]), path)
        else:
            write_records(run_sweep(recipe[1]), path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    keep = [i for i, column in enumerate(rows[0]) if column != "wall_ms"]
    return [[row[i] for i in keep] for row in rows]


def readme_bounds_output() -> bytes:
    """Standard output of ``edmdmap bounds`` on the README's config block."""
    block = README.read_text().split("### Configuration format", 1)[1].split("```")[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readme.cfg"
        path.write_text(block)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["bounds", "--config", str(path)])
    assert status == 0, f"bounds exited {status}"
    return out.getvalue().encode()


def circle_decisions() -> list[str]:
    """One line per CAUCHY_CASES and DISK_CASES entry: the settled
    ``method`` or the ``repr`` of the estimate, else the error's class."""
    def decide(call, show):
        try:
            return show(call())
        except EdmdMapError as exc:  # the class is the decision being pinned
            return type(exc).__name__

    lines = [f"cauchy {name} N={n} R={radius!r}: " + decide(
        lambda: transfer_matrix_analytic(CIRCLE_MAPS[name], n, radius), lambda tm: tm.method)
        for name, n, radius in CAUCHY_CASES]
    lines += [f"disk {name} R={radius!r}: " + decide(
        lambda: derivative_sum_estimate(CIRCLE_MAPS[name], radius), repr)
        for name, radius in DISK_CASES]
    return lines


def close(old: complex, new: complex, tol: float) -> bool:
    return old == new or abs(new - old) <= tol


def sweep_row_matches(old: list[str], new: list[str]) -> bool:
    """Labels exactly; each eigenvalue within RTOL of its own modulus;
    delta and delta_rank_paired within RTOL times |exact eigenvalue|."""
    if [old[i] for i in EXACT_COLUMNS] != [new[i] for i in EXACT_COLUMNS]:
        return False
    for re, im in ((3, 4), (5, 6)):
        stored = complex(float(old[re]), float(old[im]))
        if not close(stored, complex(float(new[re]), float(new[im])), RTOL * abs(stored)):
            return False
    exact = abs(complex(float(old[5]), float(old[6])))
    return all(close(float(old[i]), float(new[i]), RTOL * exact) for i in (7, 8))


def radius_row_matches(old: list[str], new: list[str]) -> bool:
    """N exactly; every other column within RTOL relative."""
    return old[1] == new[1] and all(
        close(float(old[i]), float(new[i]), RTOL * abs(float(old[i]))) for i in (0, 2, 3, 4)
    )


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_matches_pinned_data(name):
    with open(DATA / f"{name}.csv", newline="") as handle:
        stored = list(csv.reader(handle))
    regenerated = figure_rows(name)
    assert regenerated[0] == stored[0], "header changed"
    assert len(regenerated) == len(stored), f"{len(stored) - 1} rows stored, {len(regenerated) - 1} now"
    matches = radius_row_matches if figure_recipe(name)[0] == "radius" else sweep_row_matches
    differing = [
        f"row {number}:\n  stored {','.join(old)}\n  now    {','.join(new)}"
        for number, (old, new) in enumerate(zip(stored[1:], regenerated[1:]), start=1)
        if not matches(old, new)
    ]
    if differing:
        pytest.fail(f"{name}: {len(differing)} rows differ from tests/data/{name}.csv\n"
                    + "\n".join(differing), pytrace=False)


def test_readme_bounds_matches_pinned_output():
    assert readme_bounds_output() == (DATA / "readme_bounds.txt").read_bytes()


def test_circle_decisions_match_pinned_data():
    assert circle_decisions() == (DATA / "circle_decisions.txt").read_text().splitlines()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for figure in FIGURE_NAMES:
        with open(DATA / f"{figure}.csv", "w", newline="") as out:
            csv.writer(out).writerows(figure_rows(figure))
        print(f"wrote {DATA / figure}.csv")
    (DATA / "readme_bounds.txt").write_bytes(readme_bounds_output())
    print(f"wrote {DATA / 'readme_bounds.txt'}")
    (DATA / "circle_decisions.txt").write_text("\n".join(circle_decisions()) + "\n")
    print(f"wrote {DATA / 'circle_decisions.txt'}")
