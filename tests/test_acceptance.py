"""Acceptance gate: one test per criterion, pinned tolerances, PASS line each.

Criterion 2 checks the fig 1.1R cloud (skewed doubling, a = 1/sqrt(2),
N = 5, M = 10^4 midpoint nodes) against what the method computes at finite
M: the exact infinite-node pencil plus the closed-form O(1/M) collocation
error from the jump of T at x = a.  Its distance to the exact spectrum
(5.51e-3 at M = 10^4) is that error, not a fault, and is printed alongside.
"""

import math
import time
import warnings

import numpy as np
import pytest

from edmdmap.bench import SweepConfig, fit_decay, fourier_radius_study, match_spectra, run_sweep
from edmdmap.edmd import (
    build_finite,
    build_infinite,
    edmd_spectrum,
    node_schedule,
    nodes_equidistant,
)
from edmdmap.maps import exact_spectrum_values, make_blaschke, make_skewed_doubling
from edmdmap.observables import MONOMIALS, fourier_cross_closed, gram_infinite, monomial_basis
from edmdmap.spectral import (
    eigenvalues,
    pseudoinverse,
    scale_similarity,
    schur_bound,
    spectral_norm,
)
from edmdmap.transfer import transfer_matrix_affine, transfer_matrix_analytic

SKEW = 1.0 / np.sqrt(2.0)

warnings.filterwarnings("ignore", message="eps-pseudoinverse")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _deltas(imap, spectrum, k_max):
    return match_spectra(spectrum, exact_spectrum_values(imap, k_max), k_max).delta


def test_criterion_1_exact_recovery_piecewise_linear():
    """Infinite-node monomial EDMD reproduces the skewed doubling spectrum."""
    t0 = time.perf_counter()
    imap = make_skewed_doubling(SKEW)
    spec = edmd_spectrum(build_infinite(imap, monomial_basis(10)))
    deltas = _deltas(imap, spec, 10)
    elapsed = time.perf_counter() - t0
    ok = bool(deltas.max() < 1e-9 and elapsed < 1.0)
    _report("criterion 1 (exact recovery N=10)",
            ok, f"max delta = {deltas.max():.3e} (tol 1e-9), {elapsed:.2f} s")
    assert deltas.max() < 1e-9
    assert elapsed < 1.0


def _midpoint_jump_error(a: float, m: int, n: int) -> np.ndarray:
    """Leading O(1/M) term E of G_M - G_inf for N monomials on the skewed doubling map.

    T jumps from T(a-) = 1 to T(a+) = -1, so psi_k(T) jumps by
    1 - (-1)^k.  a lies at fraction theta of its cell of width h = 2/M;
    for theta > 1/2 the midpoint node sees the left value on the whole cell,
    where the integral sees the right value on a share 1 - theta of it.
    Everywhere else the midpoint rule is O(h^2).
    """
    h = 2.0 / m
    theta = ((a + 1.0) / h) % 1.0
    assert theta > 0.5, "node lies right of a: the jump enters with the other sign"
    k = np.arange(n)
    return 0.5 * (1.0 - theta) * h * np.outer(1.0 - (-1.0) ** k, a**k)


def test_criterion_2_fig11_right_eigenvalue_cloud():
    """N = 5, M = 10^4 cloud is the exact pencil shifted by the collocation jump error.

    G_M must equal G_inf + E up to O(h^2) (h = 2/M), H_M must equal H_inf
    up to O(h^2), and every approximant must lie within 1e-4 of the
    spectrum of the pencil (H_inf, G_inf + E).
    """
    t0 = time.perf_counter()
    m, n = 10_000, 5
    imap = make_skewed_doubling(SKEW)
    pair = build_finite(imap, monomial_basis(n), nodes_equidistant(m))
    spec = edmd_spectrum(pair)
    limit = build_infinite(imap, monomial_basis(n))
    jump = _midpoint_jump_error(SKEW, m, n)
    h2 = (2.0 / m) ** 2
    g_residual = float(np.abs(pair.g - limit.g - jump).max())
    h_residual = float(np.abs(pair.h - limit.h).max())
    predicted = eigenvalues(np.linalg.solve(limit.h, limit.g + jump))
    pencil_dist = float(match_spectra(spec, predicted, n).delta.max())
    reference = exact_spectrum_values(imap, n)  # [1, 0.75, 0.625, 0.53125, 0.453125]
    raw_delta = float(match_spectra(spec, reference, n).delta.max())
    elapsed = time.perf_counter() - t0
    ok = bool(g_residual <= 2.0 * h2 and h_residual <= 2.0 * h2
              and pencil_dist < 1e-4 and elapsed < 5.0)
    _report("criterion 2 (fig 1.1R, N=5, M=1e4)",
            ok, f"|G_M - G_inf - E| = {g_residual:.1e}, |H_M - H_inf| = {h_residual:.1e} "
                f"(tol 2h^2 = {2.0 * h2:.0e}), pencil distance = {pencil_dist:.1e} (tol 1e-4), "
                f"max delta to exact = {raw_delta:.3e}, {elapsed:.2f} s")
    assert elapsed < 5.0
    assert g_residual <= 2.0 * h2
    assert h_residual <= 2.0 * h2
    assert pencil_dist < 1e-4


def test_criterion_3_fig21_collocation_slope():
    """log Delta_1 vs log M slope in [-1.4, -0.6] for the skewed map."""
    t0 = time.perf_counter()
    config = SweepConfig(
        imap=make_skewed_doubling(SKEW),
        basis_kind=MONOMIALS,
        n_values=(5,),
        m_values=(100, 1000, 10_000, 100_000),
        eigen_indices=(1,),
    )
    records = run_sweep(config)
    slope = fit_decay(records, "algebraic").slope
    elapsed = time.perf_counter() - t0
    ok = bool(-1.4 <= slope <= -0.6 and elapsed < 30.0)
    _report("criterion 3 (fig 2.1 slope)", ok, f"slope = {slope:.3f} in [-1.4, -0.6], {elapsed:.1f} s")
    assert -1.4 <= slope <= -0.6
    assert elapsed < 30.0


@pytest.mark.filterwarnings("ignore::edmdmap.errors.RankTruncationWarning")
def test_criterion_4_fig22_exponential_convergence():
    """Blaschke infinite-node Delta_1 decays exponentially in N."""
    t0 = time.perf_counter()
    imap = make_blaschke(0.3)
    deltas = {}
    for n in range(5, 21):
        spec = edmd_spectrum(build_infinite(imap, monomial_basis(n)))
        deltas[n] = _deltas(imap, spec, 2)[1]
    xs = np.array(sorted(deltas))
    slope = np.polyfit(xs, np.log([deltas[n] for n in xs]), 1)[0]
    ratio = deltas[20] / deltas[5]
    elapsed = time.perf_counter() - t0
    ok = bool(slope < 0 and ratio < 1e-2 and elapsed < 60.0)
    _report("criterion 4 (fig 2.2 exponential decay)",
            ok, f"slope = {slope:.2f} < 0, Delta1(20)/Delta1(5) = {ratio:.2e} < 1e-2, {elapsed:.1f} s")
    assert slope < 0
    assert ratio < 1e-2
    assert elapsed < 60.0


def test_criterion_5_fig23_midpoint_slope():
    """Blaschke N = 15 midpoint-node error decays like 1/M^2."""
    t0 = time.perf_counter()
    imap = make_blaschke(0.3)
    basis = monomial_basis(15)
    floor = _deltas(imap, edmd_spectrum(build_infinite(imap, basis)), 2)[1]

    def delta1(m):
        spec = edmd_spectrum(build_finite(imap, basis, nodes_equidistant(m)))
        return _deltas(imap, spec, 2)[1]

    # largest decade in 1e2..1e5 whose points all clear 10x the
    # infinite-node floor
    chosen = None
    for lo_exp in (4.0, 3.0, 2.0):
        ms = [int(round(10 ** e / 2) * 2) for e in np.linspace(lo_exp, lo_exp + 1.0, 5)]
        ds = [delta1(m) for m in ms]
        if all(d > 10.0 * floor for d in ds):
            chosen = (ms, ds)
            break
    assert chosen is not None, "no decade clears the infinite-node floor"
    ms, ds = chosen
    slope = np.polyfit(np.log(ms), np.log(ds), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = bool(-2.5 <= slope <= -1.5 and elapsed < 300.0)
    _report("criterion 5 (fig 2.3 slope)",
            ok, f"slope = {slope:.3f} in [-2.5, -1.5] on M in [{ms[0]}, {ms[-1]}], "
                f"floor = {floor:.1e}, {elapsed:.1f} s")
    assert -2.5 <= slope <= -1.5
    assert elapsed < 300.0


def test_criterion_6_fig25_essential_radius():
    """Fourier EDMD subleading eigenvalue tracks (1+|a|)/2; tiny-skew product."""
    t0 = time.perf_counter()
    for record in fourier_radius_study((0.2, 0.4, 0.6, 0.8), (81,)):
        assert abs(record.abs_lambda1 - record.essential_radius) < 0.1, record
    target = math.log(1e-16) * math.log(2.0)
    products = [rec.product_log for rec in fourier_radius_study((1e-16,), (33, 65, 129))]
    for product in products:
        assert abs(product - target) < 0.3 * abs(target)
    elapsed = time.perf_counter() - t0
    ok = bool(elapsed < 60.0)
    _report("criterion 6 (fig 2.5 essential radius)",
            ok, f"products {['%.1f' % p for p in products]} vs {target:.1f}, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_7_bound_suite():
    """Collocation, Schur, Gram-norm and positive-definiteness bounds."""
    t0 = time.perf_counter()

    # Prop-7-style collocation bounds, entrywise and in spectral norm
    for a in (0.0, SKEW):
        imap = make_skewed_doubling(a)
        factor = max(imap.deriv_sup, 2.0 * (imap.n_branches - 1))
        for n in (5, 10):
            h_inf = gram_infinite(monomial_basis(n))
            g_inf = build_infinite(imap, monomial_basis(n)).g
            k = np.arange(n)
            for m in (50, 500, 5000):
                pair = build_finite(imap, monomial_basis(n), nodes_equidistant(m, 0.0))
                assert np.all(
                    np.abs(h_inf - pair.h) <= (k[:, None] + k[None, :]) / m + 1e-15
                )
                assert np.all(
                    np.abs(g_inf - pair.g) <= factor * (k[:, None] + k[None, :] + 1.0) / m
                )
                assert spectral_norm(h_inf - pair.h) <= 1.5 * n * n / m
                assert spectral_norm(g_inf - pair.g) <= 1.5 * factor * n * n / m
                np.linalg.cholesky(pair.h)  # positive definite for M >= N

    # Schur bound dominates the spectral norm on 400 random matrices
    rng = np.random.default_rng(1234)
    for n in (2, 5, 10, 20):
        for _ in range(100):
            a_mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert spectral_norm(a_mat) <= schur_bound(a_mat) * (1 + 1e-12)

    # Gram norm stays below pi up to N = 200 and never decreases
    norms = [spectral_norm(gram_infinite(monomial_basis(n))) for n in range(1, 201)]
    assert max(norms) < np.pi
    assert np.all(np.diff(norms) >= -1e-12)

    elapsed = time.perf_counter() - t0
    ok = bool(elapsed < 60.0)
    _report("criterion 7 (bound suite)",
            ok, f"zero violations, max ||H_N|| = {max(norms):.4f} < pi, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_8_oracle_equivalences():
    """Independent construction routes agree to tight tolerances."""
    t0 = time.perf_counter()
    imap = make_skewed_doubling(SKEW)

    # quadrature-built G vs binomial closed form, N <= 12
    n = 12
    g_quad = build_infinite(imap, monomial_basis(n)).g
    g_oracle = gram_infinite(monomial_basis(n)) @ transfer_matrix_affine(imap, n).l
    quad_err = float(np.abs(g_quad - g_oracle).max())
    assert quad_err < 1e-11

    # Cauchy-sampled transfer matrix vs affine closed form
    cauchy_err = float(
        np.abs(
            transfer_matrix_analytic(imap, 10, sample_radius=1.5).l
            - transfer_matrix_affine(imap, 10).l
        ).max()
    )
    assert cauchy_err < 1e-10

    # closed-form Fourier cross matrix vs direct per-branch quadrature
    from edmdmap.edmd import cross_gram_quadrature
    from edmdmap.observables import fourier_basis

    fourier_err = 0.0
    for a in (0.0, 0.3, SKEW):
        closed = fourier_cross_closed(a, 21)
        quad = cross_gram_quadrature(make_skewed_doubling(a), fourier_basis(21), 64)
        fourier_err = max(fourier_err, float(np.abs(closed - quad).max()))
    assert fourier_err < 1e-10

    # EDMD spectrum invariant under the diagonal scaling similarity
    pair = build_infinite(imap, monomial_basis(10))
    k_mat = pseudoinverse(pair.h, 1e-12) @ pair.g
    base = eigenvalues(k_mat).values
    sim_err = 0.0
    for rho in (1.1, 2.0):
        scaled = eigenvalues(scale_similarity(k_mat, rho)).values
        pool = list(scaled)
        for v in base:
            j = int(np.argmin([abs(v - u) for u in pool]))
            sim_err = max(sim_err, abs(v - pool[j]))
            pool.pop(j)
    assert sim_err < 1e-9

    elapsed = time.perf_counter() - t0
    ok = bool(elapsed < 30.0)
    _report("criterion 8 (oracle equivalences)",
            ok, f"quad {quad_err:.1e} | cauchy {cauchy_err:.1e} | fourier {fourier_err:.1e} "
                f"| similarity {sim_err:.1e}, {elapsed:.1f} s")
    assert elapsed < 30.0


def test_note_schedule_qualitative_convergence():
    """Node schedule M = ceil(N^2 2^N): errors improve from N = 2 to N = 8.

    Per-step collocation fluctuations are real (the finite-M error of this
    piecewise linear map fluctuates by design), so the monotone trend is
    checked end to end with the same 10x per-step fluctuation guard used
    for the M-doubling sanity check; the leading eigenvalue stays at its
    exactness floor throughout.
    """
    imap = make_skewed_doubling(SKEW)
    delta0, delta1 = [], []
    for n in range(2, 9):
        m = node_schedule(n, 2.0)
        spec = edmd_spectrum(build_finite(imap, monomial_basis(n), nodes_equidistant(m)))
        d = _deltas(imap, spec, 2)
        delta0.append(d[0])
        delta1.append(d[1])
    assert max(delta0) < 1e-12
    assert delta1[-1] < delta1[0]
    for previous, current in zip(delta1, delta1[1:]):
        assert current <= 10.0 * previous
    _report("schedule-note (qualitative trend)",
            True, f"Delta1: {delta1[0]:.2e} -> {delta1[-1]:.2e}, Delta0 <= 1e-12")
