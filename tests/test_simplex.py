import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcal.errors import EnumerationCapError, MembershipError
from lpcal.simplex import (
    ENUM_CAP,
    PROB_ATOL,
    canonical_rows,
    check_prob_rows,
    enumerate_levels,
    level_count,
    project_simplex,
    round_down,
)

from oracles import (
    project_simplex_by_cumsum,
    canonical,
    canonical_by_grid,
    canonical_one,
    first_bad_row,
    is_member,
    levels_by_greedy_certificate,
    level_count_by_sums,
    level_coords,
    levels_by_witness_enumeration,
    project_by_grid,
    simplex_grid,
)


class TestCheckProbVector:
    def test_accepts_distribution(self):
        check_prob_rows(np.array([[0.25, 0.75]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_prob_rows(np.array([[bad, 1.0]]))


def assert_rows_agree(table: np.ndarray) -> str | None:
    """check_prob_rows accepts ``table`` exactly when the per-row oracle does,
    and otherwise names the same first row with the oracle's message."""
    expected = first_bad_row(table)
    if expected is None:
        check_prob_rows(table)
        return None
    i, msg = expected
    with pytest.raises(ValueError) as exc:
        check_prob_rows(table)
    assert str(exc.value) == f"row {i}: {msg}"
    return msg


ATOL = PROB_ATOL
# (row, the oracle's verdict): rows just inside and just outside each bound.
BOUNDARY_ROWS = [
    ([-ATOL, 0.5 + ATOL, 0.5], None),
    ([np.nextafter(-ATOL, -1.0), 0.5 + ATOL, 0.5], "outside [0,1]"),
    ([1.0 + ATOL, 0.0, -ATOL], None),
    ([np.nextafter(1.0 + ATOL, 2.0), 0.0, -ATOL], "outside [0,1]"),
    ([0.5, 0.25, 0.25 + 0.999 * ATOL], None),
    ([0.5, 0.25, 0.25 + 1.001 * ATOL], "sum to"),
    ([0.5, 0.25, 0.25 - 0.999 * ATOL], None),
    ([0.5, 0.25, 0.25 - 1.001 * ATOL], "sum to"),
    ([0.5, math.nan, 0.5], "finite"),
    ([math.inf, -2.0, 0.0], "finite"),
    ([-0.5, 0.75, 0.75], "outside [0,1]"),
]


class TestCheckProbRows:
    @pytest.mark.parametrize("row, verdict", BOUNDARY_ROWS)
    def test_boundary_rows_match_oracle(self, row, verdict):
        table = np.random.default_rng(0).dirichlet(np.ones(3), size=12)
        table[7] = row
        msg = assert_rows_agree(table)
        assert (msg is None) if verdict is None else (verdict in msg)

    def test_first_bad_row_named(self):
        table = np.random.default_rng(1).dirichlet(np.ones(3), size=20)
        table[15] = [0.5, math.nan, 0.5]
        table[9] = [0.5, 0.25, 0.3]
        msg = assert_rows_agree(table)
        assert "sum to" in msg

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_prob_rows(np.zeros((3, 0)))
        check_prob_rows(np.zeros((0, 3)))

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 1e-10, 1e-9, 1e-6, 0.5]),
        st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_tables_match_oracle(self, n, k, seed, noise, p_bad):
        rng = np.random.default_rng(seed)
        table = rng.dirichlet(np.ones(k), size=n)
        hit = rng.random(table.shape) < p_bad
        table[hit] += rng.uniform(-noise, noise, size=int(hit.sum()))
        if p_bad > 0.25:
            table[rng.integers(n), rng.integers(k)] = rng.choice([math.nan, math.inf, -math.inf])
        assert_rows_agree(table)


class TestRoundDown:
    def test_plain_floor(self):
        assert round_down((0.49, 0.51), 2) == (0, 1)

    def test_exact_multiples_are_fixed_points(self):
        assert round_down((1.0, 0.0, 0.0), 2) == (2, 0, 0)
        assert round_down((1 / 3, 1 / 3, 1 / 3), 3) == (1, 1, 1)

    def test_result_coords(self):
        v = round_down((0.49, 0.51), 2)
        assert np.allclose(level_coords(v, 2), [0.0, 0.5])

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_rounding_always_lands_in_the_family(self, lam, k, seed):
        u = np.random.default_rng(seed).dirichlet(np.ones(k))
        assert is_member(round_down(u, lam), lam)


class TestCanonical:
    def test_spreads_deficit_equally(self):
        assert np.allclose(canonical((0, 1), 2), [0.25, 0.75])

    def test_zero_deficit_is_identity(self):
        assert np.allclose(canonical((1, 1), 2), [0.5, 0.5])
        assert np.allclose(canonical((2, 0), 2), [1.0, 0.0])

    def test_grid_search_confirms_sup_norm_minimality(self):
        # oracle: sweep the 1e-3 grid of the 2-simplex for points rounding
        # down to (0, 0.5); the best sup-norm distance is 0.25
        grid = simplex_grid(2, 1000)
        _, best = canonical_by_grid((0, 1), 2, grid)
        assert best == pytest.approx(0.25, abs=1e-3)
        ours = float(np.max(np.abs(canonical((0, 1), 2) - level_coords((0, 1), 2))))
        assert ours <= best + 1e-9

    def test_non_member_rejected(self):
        with pytest.raises(MembershipError):
            canonical((0, 0), 2)

    @pytest.mark.parametrize("lam,k", [(2, 2), (3, 3), (4, 2), (1, 4), (5, 3)])
    def test_round_trip(self, lam, k):
        for v in enumerate_levels(lam, k):
            assert round_down(canonical(v, lam), lam) == v

    @pytest.mark.parametrize("lam,k", [(2, 2), (3, 2), (2, 3)])
    def test_beats_every_grid_lift(self, lam, k):
        grid = simplex_grid(k, 120)
        for v in enumerate_levels(lam, k):
            ours = float(np.max(np.abs(canonical(v, lam) - level_coords(v, lam))))
            for u in grid:
                if round_down(u, lam) == v:
                    theirs = float(np.max(np.abs(u - level_coords(v, lam))))
                    assert ours <= theirs + 1e-12


@st.composite
def level_lists(draw):
    """Level sets of one length: mostly members, some arbitrary tuples near the grid's range."""
    k = draw(st.integers(1, 8))
    lam = draw(st.one_of(st.integers(1, 30), st.integers(1, 2**53)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def member():
        s = lam - int(rng.integers(0, min(lam, k - 1) + 1))
        cuts = np.sort(rng.integers(0, s + 1, size=k - 1))
        return tuple(int(n) for n in np.diff(cuts, prepend=0, append=s))

    arbitrary = st.lists(st.integers(-2, lam + 2), min_size=k, max_size=k).map(tuple)
    n = draw(st.integers(1, 20))
    return [member() if draw(st.integers(0, 3)) else draw(arbitrary) for _ in range(n)], lam


class TestCanonicalRows:
    @given(level_lists())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_scalar_formula(self, case):
        levels, lam = case
        want = []
        for v in levels:
            try:
                want.append(canonical_one(v, lam))
            except MembershipError as exc:
                want.append(exc)
        refused = [w for w in want if isinstance(w, MembershipError)]
        if refused:
            with pytest.raises(MembershipError) as info:
                canonical_rows(levels, lam)
            assert str(info.value) == str(refused[0])  # names the first bad level
        else:
            assert canonical_rows(levels, lam).tobytes() == np.stack(want).tobytes()
        for v, w in zip(levels, want):
            if isinstance(w, MembershipError):
                with pytest.raises(MembershipError):
                    canonical(v, lam)
            else:
                assert canonical(v, lam).tobytes() == w.tobytes()

    @pytest.mark.parametrize("levels", [[], [(1, 1), (2,)]])
    def test_empty_or_ragged_refused(self, levels):
        with pytest.raises(ValueError):
            canonical_rows(levels, 2)


class TestProjection:
    def test_identity_inside(self):
        assert np.allclose(project_simplex([0.2, 0.3, 0.5]), [0.2, 0.3, 0.5])

    def test_symmetric_overflow(self):
        # forced by symmetry; grid oracle at 1e-4 agrees
        out = project_simplex([0.6, 0.6])
        assert np.allclose(out, [0.5, 0.5])
        grid = simplex_grid(2, 10_000)
        assert np.max(np.abs(project_by_grid([0.6, 0.6], grid) - out)) <= 2e-4

    def test_vertex_snap(self):
        # sort-and-threshold gives theta = 0.2 here
        assert np.allclose(project_simplex([1.2, -0.1, 0.1]), [1.0, 0.0, 0.0])
        grid = simplex_grid(3, 400)
        assert np.max(np.abs(project_by_grid([1.2, -0.1, 0.1], grid) - [1, 0, 0])) <= 3e-3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex([np.nan, 0.5])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=150, deadline=None)
    def test_optimality_and_idempotence(self, k, seed):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-2.0, 2.0, size=k)
        out = project_simplex(z)
        assert np.all(out >= -1e-9)
        assert abs(out.sum() - 1.0) <= 1e-9
        dist = np.linalg.norm(out - z)
        contenders = rng.dirichlet(np.ones(k), size=200)
        assert np.all(dist <= np.linalg.norm(contenders - z, axis=1) + 1e-9)
        assert np.max(np.abs(project_simplex(out) - out)) <= 1e-9


    @given(
        st.lists(
            st.one_of(
                st.floats(-3.0, 3.0, allow_nan=False),
                st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 1e-300]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_cumsum_oracle(self, z):
        # ties, signed zeros and points already on the simplex included
        assert project_simplex(z).tobytes() == project_simplex_by_cumsum(z).tobytes()


class TestEnumeration:
    def test_two_by_two_family(self):
        got = enumerate_levels(2, 2)
        assert set(got) == {(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)}
        assert len(got) == 5 <= math.comb(4, 2)
        assert got == sorted(got)  # lexicographic order

    def test_lambda_one_three_classes(self):
        assert set(enumerate_levels(1, 3)) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_unreachable_corner(self):
        # no distribution has every coordinate below 0.5
        assert not is_member((0, 0), 2)
        assert (0, 0) not in enumerate_levels(2, 2)

    def test_member_examples(self):
        assert is_member((0, 1), 2)  # witness (0.3, 0.7)
        assert round_down((0.3, 0.7), 2) == (0, 1)
        assert is_member((2, 0), 2)  # witness is the vertex itself

    @pytest.mark.parametrize("lam,k", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (1, 5), (4, 2)])
    def test_matches_witness_oracle(self, lam, k):
        assert set(enumerate_levels(lam, k)) == levels_by_witness_enumeration(lam, k)

    @pytest.mark.parametrize("lam,k", [(2, 4), (4, 3), (5, 2), (3, 5)])
    def test_matches_greedy_certificate_oracle(self, lam, k):
        assert set(enumerate_levels(lam, k)) == levels_by_greedy_certificate(lam, k)

    def test_count_closed_form(self):
        for lam in range(1, 7):
            for k in range(1, 7):
                assert level_count(lam, k) == len(enumerate_levels(lam, k))

    def test_count_matches_the_sum_by_sum_oracle(self):
        for lam in (*range(1, 25), 60, 97, 200):
            for k in (*range(1, 25), 50, 200):
                assert level_count(lam, k) == level_count_by_sums(lam, k), (lam, k)

    def test_cardinality_bound(self):
        for lam in range(1, 11):
            for k in range(1, 11):
                if lam + k <= 12:
                    assert level_count(lam, k) <= math.comb(lam + k, k)

    def test_cap_guard(self):
        # C(14400, 7200) has more digits than Python turns into a string by default
        for lam, k in ((60, 30), (7200, 7200)):
            with pytest.raises(EnumerationCapError) as info:
                enumerate_levels(lam, k)
            assert type(info.value) is EnumerationCapError
            assert str(info.value) == f"C({lam + k},{k}) exceeds enumeration cap {ENUM_CAP}"
