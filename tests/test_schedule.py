import numpy as np
import pytest

from pilotcov import (
    IdentifiabilityError,
    Schedule,
    SingularSystemError,
    load_schedule,
    make_random_schedule,
    min_schedule_length,
    rank_and_condition,
    save_schedule,
)

from training import example442


class TestSchedule:
    @pytest.mark.parametrize("pilots, match", [
        (np.array([0, 1, 2]), "non-empty 2-D"),
        (np.zeros((3, 0), dtype=int), "non-empty 2-D"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "integers"),
        (np.array([[0, 1], [-1, 0]]), r"\[0, 3\)"),
        (np.array([[0, 1], [3, 0]]), r"\[0, 3\)"),
    ], ids=["one-dimensional", "empty", "float", "below-0", "at-Ttr"])
    def test_constructor_refusals(self, pilots, match):
        with pytest.raises(ValueError, match=match):
            Schedule(pilots, 3)

    def test_allocations_and_compound_derive_from_pilots(self):
        pilots = np.array([[2, 0, 1, 2], [0, 1, 1, 0]])
        sched = Schedule(pilots, 3)
        assert (sched.N, sched.K, sched.Ttr) == (2, 4, 3)
        assert sched.allocations.shape == (2, 4, 3)
        for n in range(2):
            np.testing.assert_array_equal(sched.allocations[n], np.eye(3)[pilots[n]])
        np.testing.assert_array_equal(sched.compound, np.hstack(sched.allocations))

    def test_equality_and_hash_do_not_raise(self):
        a, b = example442(), example442()
        assert a == a
        assert a != b  # identity, not the array fields
        assert len({a, b, a}) == 2


class TestMinScheduleLength:
    def test_four_users_two_pilots(self):
        assert min_schedule_length(4, 2) == 3

    def test_seventy_users_eleven_pilots(self):
        assert min_schedule_length(70, 11) == 7

    @pytest.mark.parametrize("Ttr", [2, 3, 4, 5, 6])
    def test_one_extra_user_needs_two_allocations(self, Ttr):
        assert min_schedule_length(Ttr + 1, Ttr) == 2

    def test_single_pilot_impossible(self):
        with pytest.raises(IdentifiabilityError):
            min_schedule_length(4, 1)

    def test_no_pilots_rejected(self):
        with pytest.raises(ValueError, match="Ttr must be >= 1"):
            min_schedule_length(4, 0)


class TestExampleSchedule442:
    def test_exact_allocations(self):
        sched = example442()
        expected = [
            [[1, 0], [1, 0], [0, 1], [0, 1]],
            [[1, 0], [0, 1], [1, 0], [0, 1]],
            [[1, 0], [0, 1], [0, 1], [1, 0]],
        ]
        assert sched.N == 3
        np.testing.assert_array_equal(sched.allocations, np.array(expected))
        assert sched.compound.shape == (4, 6)

    def test_rank_and_condition(self):
        rank, cond = rank_and_condition(example442())
        assert rank == 4
        assert abs(cond - np.sqrt(3.0)) < 1e-12


class TestRankAndCondition:
    def test_repeated_allocation_rank_is_pilot_count(self):
        sched = Schedule(np.tile([0, 1, 2, 0, 1], (4, 1)), 3)
        rank, _ = rank_and_condition(sched)
        assert rank == 3

    def test_structural_bound_below_user_count(self):
        # K=6, Ttr=3, N=2: rank can reach at most 3 + 2 = 5 < 6
        rng = np.random.default_rng(0)
        for _ in range(20):
            sched = make_random_schedule(6, 3, 2, 3, rng,
                                         require_full_rank=False)
            rank, _ = rank_and_condition(sched)
            assert rank <= 5

    def test_rank_bound_over_random_grid(self):
        rng = np.random.default_rng(1)
        for K, Ttr, cells in [(6, 3, 3), (8, 4, 2), (12, 5, 3), (10, 4, 5)]:
            for N in (1, 2, 4):
                sched = make_random_schedule(K, Ttr, N, cells, rng,
                                             require_full_rank=False)
                rank, _ = rank_and_condition(sched)
                assert rank <= Ttr + (N - 1) * (Ttr - 1)

    def test_rank_above_structural_bound_raises(self, monkeypatch):
        # a broken SVD claiming full rank for K=4, Ttr=2, N=2 (bound 3)
        # must fail loudly, and not through an assert that -O strips
        sched = Schedule(example442().pilots[[0, 0]], 2)
        monkeypatch.setattr(np.linalg, "svd",
                            lambda A, compute_uv: np.ones(min(A.shape)))
        with pytest.raises(SingularSystemError, match="structural bound 3"):
            rank_and_condition(sched)


class TestRandomSchedule:
    def test_single_cell_full_pilots_gives_permutation(self):
        rng = np.random.default_rng(2)
        sched = make_random_schedule(4, 4, 1, 1, rng)
        A = sched.allocations[0]
        np.testing.assert_array_equal(A.sum(axis=0), np.ones(4))
        np.testing.assert_array_equal(A.sum(axis=1), np.ones(4))

    def test_paired_cells_force_column_sums(self):
        # two cells of two users, two pilots: each pilot carries one user
        # per cell, so both column sums are 2 in every interval
        rng = np.random.default_rng(3)
        sched = make_random_schedule(4, 2, 3, 2, rng,
                                     require_full_rank=False)
        for alloc in sched.allocations:
            np.testing.assert_array_equal(alloc.sum(axis=0), [2, 2])

    def test_same_cell_users_get_distinct_pilots(self):
        rng = np.random.default_rng(4)
        sched = make_random_schedule(12, 5, 6, 3, rng)
        for pilots, alloc in zip(sched.pilots, sched.allocations):
            for cell in range(3):
                cell_pilots = pilots[4 * cell : 4 * (cell + 1)]
                assert len(set(cell_pilots)) == 4
            # all users served: the interval's columns sum to K in total
            assert alloc.sum() == 12

    def test_failed_draws_name_the_default_length(self):
        # one user per cell, Ttr = K and the minimum length N = 1: a draw is
        # full rank with probability 6!/6^6, and seed 10's 101 draws all fail
        with pytest.raises(IdentifiabilityError,
                           match=r"101 draws \(K=6, Ttr=6, N=1\): random draws of "
                                 r"this length are rarely full rank; use a longer "
                                 r"schedule, such as the default length N=3"):
            make_random_schedule(6, 6, 1, 6, np.random.default_rng(10))

    def test_full_rank_enforced_by_default(self):
        rng = np.random.default_rng(5)
        sched = make_random_schedule(70, 11, 9, 7, rng)
        rank, _ = rank_and_condition(sched)
        assert rank == 70

    def test_too_many_users_per_cell_rejected(self):
        with pytest.raises(ValueError, match="4 users per cell cannot use distinct"):
            make_random_schedule(8, 3, 5, 2, np.random.default_rng(0))

    def test_users_not_splitting_into_cells_rejected(self):
        with pytest.raises(ValueError):
            make_random_schedule(7, 4, 3, 2, np.random.default_rng(0))

    def test_cell_saturating_pilots_never_identifiable(self):
        # when every cell occupies all pilots, differences of cell
        # indicators annihilate every allocation
        with pytest.raises(IdentifiabilityError):
            make_random_schedule(6, 3, 10, 2, np.random.default_rng(0))


class TestScheduleIO:
    def test_roundtrip_preserves_compound(self, tmp_path):
        rng = np.random.default_rng(6)
        sched = make_random_schedule(6, 4, 3, 2, rng)
        path = tmp_path / "sched.txt"
        save_schedule(sched, str(path))
        loaded = load_schedule(str(path), Ttr=4)
        np.testing.assert_array_equal(loaded.pilots, sched.pilots)
        assert loaded.Ttr == sched.Ttr
        np.testing.assert_array_equal(loaded.compound, sched.compound)

    def test_text_format_one_line_per_interval(self, tmp_path):
        sched = example442()
        path = tmp_path / "sched.txt"
        save_schedule(sched, str(path))
        lines = path.read_text().splitlines()
        assert lines == ["0 0 1 1", "0 1 0 1", "0 1 1 0"]

    def test_load_infers_pilot_count(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("0 1 2\n2 1 0\n")
        sched = load_schedule(str(path))
        assert sched.Ttr == 3 and sched.K == 3 and sched.N == 2
