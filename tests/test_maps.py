"""Map construction, evaluation, inverse-branch consistency, exact spectra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edmdmap.edmd import _chunk_nodes, nodes_equidistant
from edmdmap.errors import BranchCutError, MapDomainError, ParameterError, UnsupportedMapError
from edmdmap.maps import (
    Branch,
    IntervalMap,
    _forward_runs,
    exact_spectrum_values,
    make_blaschke,
    make_skewed_doubling,
    verify_branch_analyticity,
)

SKEW = 1.0 / np.sqrt(2.0)


class TestSkewedDoubling:
    def test_eval_plain_doubling(self):
        T = make_skewed_doubling(0.0)
        assert T(0.5) == pytest.approx(0.0, abs=1e-14)
        assert T(-1.0) == -1.0

    def test_eval_skewed_at_zero(self):
        # 2/(1 + 1/sqrt(2)) - 1, frozen from 50-digit evaluation
        T = make_skewed_doubling(SKEW)
        assert T(0.0) == pytest.approx(0.17157287525380990, abs=1e-12)

    def test_eval_domain_error(self):
        T = make_skewed_doubling(0.3)
        with pytest.raises(MapDomainError):
            T(1.5)
        with pytest.raises(MapDomainError):
            T(np.array([0.0, -1.2]))
        with pytest.raises(MapDomainError):
            make_blaschke(0.3)(np.array([np.nan, 0.2]))
        assert T(np.array([])).shape == (0,)

    def test_critical_point_uses_left_branch(self):
        T = make_skewed_doubling(0.3)
        assert T(0.3) == pytest.approx(1.0, abs=1e-14)

    def test_branch_slopes_a0(self):
        T = make_skewed_doubling(0.0)
        assert T.branches[0].affine == (0.5, -0.5)
        assert T.branches[1].affine == (0.5, 0.5)
        assert T.critical_points == (0.0,)

    def test_deriv_sup(self):
        assert make_skewed_doubling(SKEW).deriv_sup == pytest.approx(6.828427124746190, rel=1e-14)

    def test_parameter_validation(self):
        for bad in (1.0, -1.0, 1.2):
            with pytest.raises(ParameterError):
                make_skewed_doubling(bad)

    def test_branch_signs(self):
        T = make_skewed_doubling(-0.4)
        for branch in T.branches:
            assert branch.sign == np.sign(np.real(branch.inverse_derivative(0j)))


class TestBlaschke:
    def test_mu_zero_reduces_to_doubling(self):
        B = make_blaschke(0.0)
        D = make_skewed_doubling(0.0)
        xs = np.linspace(-1.0, 1.0, 41).astype(complex)
        for b_branch, d_branch in zip(B.branches, D.branches):
            assert np.abs(b_branch.inverse(xs) - d_branch.inverse(xs)).max() < 1e-14
            assert np.abs(b_branch.inverse_derivative(xs) - 0.5).max() < 1e-14

    def test_forward_inverse_identity_101_points(self):
        B = make_blaschke(0.3)
        xs = np.linspace(-1.0, 1.0, 101)
        for branch in B.branches:
            back = branch.forward(np.real(branch.inverse(xs.astype(complex))))
            assert np.abs(back - xs).max() < 1e-12

    def test_right_limit_at_zero(self):
        # direct evaluation of the right branch as x -> 0+ tends to -1
        B = make_blaschke(0.3)
        assert B(1e-9) == pytest.approx(-1.0, abs=1e-7)
        assert B(0.0) == pytest.approx(1.0, abs=1e-14)  # left branch by tie-break

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            make_blaschke(0.31)
        make_blaschke(-0.3)  # boundary allowed

    def test_deriv_sup_close_to_analytic_value(self):
        # T'(x) = 2 + 2 mu (cos(pi x) - mu) / (1 - 2 mu cos(pi x) + mu^2),
        # maximal at x = 0 on each branch for mu > 0 and at x = +-1 for mu < 0,
        # where cos(pi x) = sign(mu) gives the same value with |mu|
        for mu in (0.3, -0.3):
            B = make_blaschke(mu)
            m = abs(mu)
            t_prime_max = 2.0 + 2.0 * m * (1.0 - m) / (1.0 - 2.0 * m + m * m)
            assert B.deriv_sup == pytest.approx(1.01 * t_prime_max, rel=1e-6)

    def test_analyticity_check(self):
        B = make_blaschke(0.3)
        verify_branch_analyticity(B, 1.1)
        # steep just inside the branch points: passes on a finer circle
        verify_branch_analyticity(B, 1.19)
        with pytest.raises(BranchCutError):
            # cosh growth pushes |mu cos(pi z/2)| over 1 on |z| = 1.5
            verify_branch_analyticity(B, 1.5)
        with pytest.raises(BranchCutError):
            # cos(pi z/2) overflows: a cut, not a RuntimeWarning made an error by the suite
            verify_branch_analyticity(B, 1e300)
        with pytest.raises(ParameterError):
            # refused before inf * exp(0j) builds a NaN circle, affine branches too
            verify_branch_analyticity(make_skewed_doubling(0.4), np.inf)


class TestExactSpectrum:
    def test_skewed_leading_pair(self):
        values = exact_spectrum_values(make_skewed_doubling(SKEW), 2)
        assert values[0] == pytest.approx(1.0, abs=1e-15)
        assert values[1] == pytest.approx(0.75, abs=1e-15)  # (1 + a^2)/2

    def test_lambda0_is_one_for_any_skew(self):
        for a in (-0.8, -0.2, 0.0, 0.5, SKEW):
            assert exact_spectrum_values(make_skewed_doubling(a), 1)[0] == pytest.approx(1.0)

    def test_blaschke_sorted_families(self):
        values = exact_spectrum_values(make_blaschke(0.3), 6).real
        # sort oracle over {1} u {0.3^n x2} u {0.65^n}
        pool = [1.0]
        for n in range(1, 7):
            pool += [0.3**n, 0.3**n, 0.65**n]
        expected = sorted(pool, reverse=True)[:6]
        assert values == pytest.approx(expected, abs=1e-15)
        assert values[3] == values[4] == pytest.approx(0.3)

    def test_skewed_strictly_decreasing_for_nonzero_skew(self):
        for a in (0.3, -0.5, SKEW):
            values = exact_spectrum_values(make_skewed_doubling(a), 20).real
            assert np.all(np.diff(values) < 0)

    def test_blaschke_structure_and_multiplicity(self):
        mu, n_max = 0.3, 12
        values = exact_spectrum_values(make_blaschke(mu), n_max).real
        family_mu = {round(mu**n, 15): n for n in range(1, n_max + 1)}
        family_half = {round(((1 + mu) / 2) ** n, 15) for n in range(0, n_max + 1)}
        counts: dict[float, int] = {}
        for v in values:
            key = round(float(v), 15)
            counts[key] = counts.get(key, 0) + 1
            assert key in family_half or key in family_mu
        for key, n in family_mu.items():
            if key in counts and key not in family_half:
                assert counts[key] == 2, f"mu^{n} should appear exactly twice"

    def test_unsupported_map(self):
        T = make_skewed_doubling(0.2)
        plain = IntervalMap(branches=T.branches, deriv_sup=T.deriv_sup)
        with pytest.raises(UnsupportedMapError):
            exact_spectrum_values(plain, 3)


class TestMapInvariants:
    @pytest.mark.parametrize("imap", [make_skewed_doubling(SKEW), make_blaschke(0.3)])
    def test_roundtrip_on_fine_grid(self, imap):
        xs = np.linspace(-1.0, 1.0, 1001)
        for branch in imap.branches:
            back = branch.forward(np.real(branch.inverse(xs.astype(complex))))
            assert np.abs(back - xs).max() < 1e-10

    @pytest.mark.parametrize("imap", [make_skewed_doubling(SKEW), make_blaschke(0.3)])
    def test_piecewise_monotone(self, imap):
        for branch in imap.branches:
            xs = np.linspace(branch.domain_lo, branch.domain_hi, 300)[1:-1]
            assert np.all(np.diff(imap(xs)) > 0)

    @pytest.mark.parametrize("imap", [make_skewed_doubling(SKEW), make_blaschke(0.3)])
    def test_slopes_bounded_by_deriv_sup(self, imap):
        for branch in imap.branches:
            xs = np.linspace(branch.domain_lo, branch.domain_hi, 2000)[1:-1]
            slopes = np.diff(imap(xs)) / np.diff(xs)
            assert slopes.max() <= imap.deriv_sup * (1 + 1e-9)
            assert slopes.min() >= 1.0 - 1e-9  # expanding on every branch

    @pytest.mark.parametrize("imap", [make_skewed_doubling(0.3), make_blaschke(0.3)])
    def test_branch_domains_partition_interval(self, imap):
        assert imap.branches[0].domain_lo == -1.0
        assert imap.branches[-1].domain_hi == 1.0
        for left, right in zip(imap.branches, imap.branches[1:]):
            assert left.domain_hi == right.domain_lo

    def test_critical_point_validation(self):
        # critical points are the joins of the branch domains, which must tile [-1, 1]
        left, right = make_skewed_doubling(0.2).branches
        assert IntervalMap(branches=(left, right), deriv_sup=2.0).critical_points == (0.2,)
        for branches in (
            (left, replace(right, domain_lo=0.3)),  # gap
            (left, replace(right, domain_lo=0.1)),  # overlap
            (replace(left, domain_lo=-0.9), right),  # not starting at -1
            (left, replace(right, domain_hi=0.9)),  # not ending at 1
            (right, left),  # out of order
            (),
        ):
            with pytest.raises(ParameterError):
                IntervalMap(branches=branches, deriv_sup=2.0)
        with pytest.raises(ParameterError):  # a branch domain outside [-1, 1]
            replace(left, domain_lo=-1.5)

    def test_expansion_params_validation(self):
        T = make_skewed_doubling(0.2)
        for params in [(3.0, 2.0), (1.1, np.inf)]:  # r above R; R not finite
            with pytest.raises(ParameterError):
                IntervalMap(branches=T.branches, deriv_sup=T.deriv_sup, expansion_params=params)
        with pytest.raises(ParameterError):  # a map that does not expand
            IntervalMap(branches=T.branches, deriv_sup=0.5)


def three_branch_map():
    """Affine full-branch map on [-1, -0.2], [-0.2, 0.4], [0.4, 1], the middle
    branch decreasing, built from Branch and IntervalMap."""
    def branch(lo, hi, decreasing=False):
        alpha = (hi - lo) / 2.0 * (-1.0 if decreasing else 1.0)
        beta = (hi + lo) / 2.0
        return Branch(
            domain_lo=lo,
            domain_hi=hi,
            forward=lambda x: (np.asarray(x) - beta) / alpha,
            inverse=lambda z: alpha * np.asarray(z) + beta,
            inverse_derivative=lambda z: np.full_like(np.asarray(z, dtype=complex), alpha),
            affine=(alpha, beta),
        )

    return IntervalMap(branches=(branch(-1.0, -0.2), branch(-0.2, 0.4, decreasing=True),
                                 branch(0.4, 1.0)), deriv_sup=2.0 / 0.6)


class TestForwardRuns:
    # build_finite maps each chunk of ordered nodes branch by branch on its
    # runs; the values must be those of IntervalMap.__call__, bit for bit
    @staticmethod
    def check_chunks(imap, x, c):
        out = np.full(x.size + 3, np.nan)[3:]  # an unaligned start, as in a reused buffer
        for lo in range(0, x.size, c):
            _forward_runs(imap, x[lo : lo + c].copy(), out[lo : lo + c])
        assert out.tobytes() == imap(x).tobytes()

    def test_node_on_critical_point_takes_left_branch(self):
        imap, x = make_blaschke(0.3), nodes_equidistant(10**4, 0.0).nodes
        assert x[5000] == 0.0 == imap.critical_points[0]
        for c in (1, 2, 5000, 5001, _chunk_nodes(16), x.size):
            self.check_chunks(imap, x, c)

    def test_skewed_chunks_straddle_the_critical_point(self):
        imap, x = make_skewed_doubling(SKEW), nodes_equidistant(10**4).nodes
        for c in (3, 17, _chunk_nodes(16), _chunk_nodes(6), x.size):
            starts = x[::c]
            assert np.any((starts < SKEW) & (np.append(starts[1:], 2.0) > SKEW + 1e-12))
            self.check_chunks(imap, x, c)

    def test_tent_map(self):
        from test_transfer import tent_map

        for m, delta in ((1, None), (2, 0.0), (1001, None), (4096, 0.0)):
            x = nodes_equidistant(m, delta).nodes
            for c in (1, 7, 1024):
                self.check_chunks(tent_map(), x, c)

    def test_three_branch_map(self):
        imap = three_branch_map()
        assert imap.critical_points == (-0.2, 0.4)
        x = np.sort(np.concatenate([nodes_equidistant(3000).nodes, [-0.2, -0.2, 0.4, -1.0, 1.0]]))
        for c in (1, 2, 3, 250, 1024, x.size):
            self.check_chunks(imap, x, c)


class TestOdd:
    # odd means T(-x) == -T(x) exactly in float64 on the probe points
    @pytest.mark.parametrize("mu", [-0.3, 0.0, 0.2, 0.3])
    def test_blaschke_is_odd(self, mu):
        assert make_blaschke(mu).odd

    def test_unskewed_doubling_is_odd(self):
        assert make_skewed_doubling(0.0).odd

    @pytest.mark.parametrize("a", [1e-16, 0.4, SKEW])
    def test_skewed_doubling_is_not_odd(self, a):
        # at a = 1e-16 the two branches' coefficients differ by one rounding
        assert not make_skewed_doubling(a).odd

    def test_tent_map_is_not_odd(self):
        from test_transfer import tent_map

        assert not tent_map().odd

    def test_survives_replace(self):
        imap = replace(make_blaschke(0.3), expansion_params=(1.05, 1.15))
        assert imap.odd and imap.expansion_params == (1.05, 1.15)


# |a| <= 0.95: the branch slope 2/(1 - |a|) scales rounding, and the round
# trip misses 1e-14 from |a| = 0.99 on (1.1e-14 there, 1.1e-13 at 0.999)
MAPS = st.one_of(
    st.floats(-0.3, 0.3).map(make_blaschke),
    st.floats(-0.95, 0.95).map(make_skewed_doubling),
)


class TestBranchProperties:
    @settings(database=None, deadline=None)
    @given(imap=MAPS, x=st.floats(-1.0, 1.0))
    def test_forward_inverts_each_branch(self, imap, x):
        for branch in imap.branches:
            assert abs(branch.forward(branch.inverse(x).real) - x) <= 1e-14

    @settings(database=None, deadline=None)
    @given(imap=MAPS, x=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_map_inverts_each_branch(self, imap, x):
        for branch in imap.branches:
            y = float(branch.inverse(x).real)
            # a preimage rounded onto or past a critical point follows the tie-break
            assume(branch.domain_lo < y < branch.domain_hi)
            assert abs(imap(y) - x) <= 1e-14

    @settings(database=None, deadline=None)
    @given(imap=MAPS, data=st.data())
    def test_clip_moves_values_by_rounding_only(self, imap, data):
        # IntervalMap.__call__ clips each branch's forward values to [-1, 1]
        for branch in imap.branches:
            x = data.draw(arrays(float, 32, elements=st.floats(branch.domain_lo, branch.domain_hi)))
            values = branch.forward(x)
            assert np.abs(values - np.clip(values, -1.0, 1.0)).max() <= 1e-14
