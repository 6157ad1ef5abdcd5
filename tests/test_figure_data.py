"""The seven bundled figure data sets, pinned in tests/data.

tests/data/<name>.csv is the output of ``edmdmap figure --name <name>``
without its ``wall_ms`` column.  Each test regenerates one recipe and
compares it with that file row by row; on a mismatch it lists every
differing row with the stored and the regenerated values.
tests/data/readme_bounds.txt is the standard output of ``edmdmap bounds``
on the README's config block, compared byte for byte.  A change that
moves rows on purpose regenerates all eight files with

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

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
RTOL = 1e-9

# sweep CSV columns without wall_ms:
# N, M, n, re_approx, im_approx, re_exact, im_exact, delta, delta_rank_paired, eps_rank, status
EXACT_COLUMNS = (0, 1, 2, 9, 10)


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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for figure in FIGURE_NAMES:
        with open(DATA / f"{figure}.csv", "w", newline="") as out:
            csv.writer(out).writerows(figure_rows(figure))
        print(f"wrote {DATA / figure}.csv")
    (DATA / "readme_bounds.txt").write_bytes(readme_bounds_output())
    print(f"wrote {DATA / 'readme_bounds.txt'}")
