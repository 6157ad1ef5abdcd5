"""Command-line interface.

Subcommands: ``spectrum`` (one experiment, table to stdout), ``sweep``
(grid to CSV), ``figure`` (bundled reference data sets), ``bounds``
(bound values next to measured quantities).  Exit codes: 0 success,
1 configuration or usage error, 2 numerical failure, 3 sweep finished
with failed cells.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    FIGURE_NAMES,
    SweepPairs,
    figure_recipe,
    fourier_radius_study,
    parse_config,
    read_config_text,
    run_sweep,
    sweep_config,
    sweep_config_from_file,
    write_radius_records,
    write_records,
)
from .errors import BranchCutError, ConfigError, EdmdMapError
from .observables import MONOMIALS, gram_infinite, monomial_basis
from .spectral import GAMMA, eigenvalues, pseudoinverse, schur_bound, spectral_norm
from .transfer import (
    derivative_sum_estimate,
    projection_error_bound,
    schedule_regime,
    transfer_matrix_affine,
    transfer_matrix_analytic,
)


def _cmd_spectrum(args) -> int:
    cfg = parse_config(read_config_text(args.config), "spectrum")
    config = sweep_config(cfg)
    if len(config.cells()) > 1:
        raise ConfigError("keys 'N' and 'M': spectrum runs one (N, M) cell; use sweep for a grid")
    n, m = config.cells()[0]
    config = replace(config, n_values=(n,), m_values=(m,), schedule=None, eigen_indices=None)
    affine = all(branch.affine is not None for branch in config.imap.branches)
    tm = (transfer_matrix_affine if affine else transfer_matrix_analytic)(config.imap, n)
    records = run_sweep(config)
    failed = [rec for rec in records if rec.status != "ok"]
    if failed:
        print(f"cell N={n}, M={'inf' if m is None else m} failed: {failed[0].status}")
        return 2
    print(f"map spectrum, N={n}, M={'inf' if m is None else m} "
          f"(eps-truncation rank {records[0].eps_rank})")
    print(f"{'n':>3} {'re(approx)':>22} {'im(approx)':>22} {'re(exact)':>22} {'delta':>12}")
    for rec in records:
        print(
            f"{rec.index:>3} {rec.approx.real:>22.15e} {rec.approx.imag:>22.15e} "
            f"{rec.exact.real:>22.15e} {rec.delta:>12.3e}"
        )
    print(f"transfer matrix L_N spectrum ({tm.method}):")
    for i, value in enumerate(eigenvalues(tm.l).values):
        print(f"{i:>3} {value.real:>22.15e} {value.imag:>22.15e}")
    return 0


def _check_out(out: str) -> None:
    """An --out that cannot become a file is a configuration error, found
    before any cell runs."""
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out}: directory {path.parent} does not exist")


def _write_sweep(config, out, label: str = "") -> int:
    records = run_sweep(config)
    write_records(records, out)
    failed = sum(1 for rec in records if rec.status != "ok")
    print(f"wrote {len(records)} rows{label} to {out}" + (f" ({failed} failed)" if failed else ""))
    return 3 if failed else 0


def _cmd_sweep(args) -> int:
    config = sweep_config_from_file(args.config)
    _check_out(args.out)
    return _write_sweep(config, args.out)


def _cmd_figure(args) -> int:
    recipe = figure_recipe(args.name)
    _check_out(args.out)
    if recipe[0] == "radius":
        _, a_values, n_values = recipe
        write_radius_records(fourier_radius_study(a_values, n_values), args.out)
        print(f"wrote radius study ({args.name}) to {args.out}")
        return 0
    return _write_sweep(recipe[1], args.out, f" ({args.name})")


def _projection_report(imap, n_values) -> list[str]:
    """The lines of the projection-bound section; (r, R_disk) giving a
    non-finite rho, derivative-sum estimate or bound, or a disk
    |z| <= R_disk on which an inverse branch is not analytic, is a
    configuration error."""
    r, big_r = imap.expansion_params
    rho = math.sqrt(r * big_r)
    try:
        sup = derivative_sum_estimate(imap, big_r)
    except BranchCutError as exc:
        raise ConfigError(f"keys 'r' and 'R_disk': an inverse branch is not analytic on "
                          f"the disk |z| <= R_disk = {big_r} ({exc})") from exc
    bounds = []
    if r < rho < big_r and math.isfinite(sup):  # an overflowed rho is inf, not below R_disk
        bounds = [projection_error_bound(r, big_r, rho, n, sup) for n in n_values]
    if not bounds or not all(math.isfinite(bound) for bound in bounds):
        raise ConfigError(f"keys 'r' and 'R_disk': r = {r}, R_disk = {big_r} give rho = "
                          f"{rho:.6g} and est. sup sum|phi'| = {sup:.6g}, so no finite "
                          "projection bound")
    flag = schedule_regime(r, big_r)
    lines = [f"expansion params (uncertified): r = {r}, R = {big_r}; "
             f"schedule regime r/R < 1/gamma: {flag}",
             f"projection bound, rho = {rho:.6g}, est. sup sum|phi'| = {sup:.6g}:"]
    for n, bound in zip(n_values, bounds):
        line = f"  N={n:3d}  C((rho/R)^N + (r/rho)^N) = {bound:.6e}"
        if flag:
            # schedule-regime decay factor, up to an unspecified constant
            line += f"   (gamma r/R)^(N/2) = {(GAMMA * r / big_r) ** (n / 2):.3e}"
        lines.append(line)
    return lines


def _cmd_bounds(args) -> int:
    cfg = parse_config(read_config_text(args.config), "bounds")
    defaults = {"N": (10,)} if "schedule" in cfg else {"N": (10,), "M": (1000,)}
    config = sweep_config(defaults | cfg)
    imap, n_values = config.imap, config.n_values
    if config.basis_kind != MONOMIALS:
        raise ConfigError(f"key 'basis': bounds reports on {MONOMIALS} only")
    d = imap.n_branches
    g_factor = max(imap.deriv_sup, 2.0 * (d - 1))
    lines = [f"map: {imap.spectrum_kind or 'custom'}, branches d = {d}, "
             f"||T'|| = {imap.deriv_sup:.6g}"]
    if imap.expansion_params is None:
        lines.append("no (r, R) expansion parameters in config; projection bound skipped")
    else:
        lines += _projection_report(imap, n_values)

    lines.append("collocation bounds (monomials) vs measured spectral norms:")
    pairs = SweepPairs(config)
    for n, m in config.cells():
        if m is None:
            continue
        h_exact = gram_infinite(monomial_basis(n))
        pair = pairs.pair(n, m)
        dh = spectral_norm(h_exact - pair.h)
        bound_h = 1.5 * n * n / m
        lines.append(f"  N={n:3d} M={m:7d}  ||H-H^(M)||_2 = {dh:.3e} <= {bound_h:.3e}"
                     f"  schur(H^(M)) = {schur_bound(pair.h):.4f} >= "
                     f"||H^(M)||_2 = {spectral_norm(pair.h):.4f}"
                     f"  G-bound = {1.5 * g_factor * n * n / m:.3e}")

    lines.append("pseudoinverse growth diagnostic (never asserted):")
    ref = 2.0 * math.log(1.0 + math.sqrt(2.0))
    for n in n_values:
        h = gram_infinite(monomial_basis(n))
        log_norm = math.log(spectral_norm(pseudoinverse(h, 0.0)))
        lines.append(f"  N={n:3d}  log||pinv(H_N)|| = {log_norm:8.3f}"
                     f"  (reference slope 2 log(1+sqrt 2) = {ref:.4f}, slope*N = {ref * n:.3f})")
    # every line is computed before any is printed: a failure leaves stdout empty
    print("\n".join(lines))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="edmdmap",
        description="EDMD spectra of transfer/Koopman operators for interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="print one EDMD spectrum with exact values")
    p_spec.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="run a (N, M) grid and write CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)

    p_fig = sub.add_parser("figure", help="write one of the bundled reference data sets")
    p_fig.add_argument("--name", required=True, choices=FIGURE_NAMES)
    p_fig.add_argument("--out", required=True)

    p_bounds = sub.add_parser("bounds", help="print bound values next to measurements")
    p_bounds.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the numerical-failure code
        if exc.code == 0:  # --help
            raise
        return 1
    handlers = {
        "spectrum": _cmd_spectrum,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except EdmdMapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
