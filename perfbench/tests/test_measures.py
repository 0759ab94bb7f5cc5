import numpy as np
import pytest

from measures import deadline_misses, log_digest, tail, tail_percentile


@pytest.mark.parametrize("n, q", [(552, 98), (999, 98), (1000, 99), (80, 87), (20, 50),
                                  (10**6, 99)])
def test_tail_percentile(n, q):
    assert tail_percentile(n) == q


@pytest.mark.parametrize("n", [20, 80, 399, 400, 552, 999, 1000, 1743])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    q = tail_percentile(n)
    assert n * (100 - q) >= 1000
    assert q == 99 or n * (100 - (q + 1)) < 1000


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_tail_value():
    values = np.arange(1000.0)
    assert tail(values) == (99, float(np.percentile(values, 99)))


def test_step_at_exactly_delta_is_not_a_miss():
    assert deadline_misses([0.05], 0.05) == 0
    assert deadline_misses([0.01, 0.05, np.nextafter(0.05, 1.0)], 0.05) == 1


HEADER = "t,x,solve_iters,solve_time_ms,status\n"


def test_log_digest_ignores_solve_time():
    a = HEADER + "0,1.5,6,12.25,converged\n0.05,1.6,5,8.5,converged\n"
    b = HEADER + "0,1.5,6,30.75,converged\n0.05,1.6,5,9,converged\n"
    assert log_digest(a) == log_digest(b)


@pytest.mark.parametrize("changed", [
    "0,1.5,7,12.25,converged\n",           # iterations
    "0,1.5000000000000002,6,12.25,converged\n",  # last digit of a state
    "0,1.5,6,12.25,max-iterations\n",      # status
])
def test_log_digest_sees_other_columns(changed):
    base = HEADER + "0,1.5,6,12.25,converged\n"
    assert log_digest(base) != log_digest(HEADER + changed)


def test_log_digest_sees_row_count():
    row = "0,1.5,6,12.25,converged\n"
    assert log_digest(HEADER + row) != log_digest(HEADER + row + row)
