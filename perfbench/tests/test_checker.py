"""The reference checker against values worked by hand.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checker  # noqa: E402

#: sigma* of examples/quickstart.py: one pre-defined SPI poll (T=50,
#: C=4) spread over a 50-slot table.
QUICKSTART_PATTERN = [1 if slot in (0, 12, 25, 37) else 0 for slot in range(50)]


def test_server_sbf_gamma_5_2():
    # Gamma = (5, 2): budget early in one period, late in every later one;
    # the longest blackout is 2 * (5 - 2) = 6 slots, then 2 slots per 5.
    expected = [0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 3]
    assert list(checker.sbf_server(5, 2, np.arange(13))) == expected
    assert [checker.sbf_server_by_sliding(5, 2, t) for t in range(13)] == expected


@pytest.mark.parametrize("pi,theta", [(1, 1), (4, 4), (7, 3), (10, 1), (12, 11)])
def test_server_sbf_closed_form_matches_sliding(pi, theta):
    t = np.arange(4 * pi + 3)
    closed = list(checker.sbf_server(pi, theta, t))
    assert closed == [checker.sbf_server_by_sliding(pi, theta, int(x)) for x in t]


def test_server_dbf_gamma_5_2():
    assert list(checker.dbf_server(5, 2, np.arange(13))) == [
        0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 4, 4, 4,
    ]


def test_sporadic_dbf_hand_values():
    # tau = (T=10, C=3, D=7): first job due at 7, one more every 10.
    values = checker.dbf_sporadic((10, 3, 7), np.array([0, 6, 7, 16, 17, 27]))
    assert list(values) == [0, 0, 3, 3, 6, 9]
    total = checker.dbf_taskset([(10, 3, 7), (4, 1, 4)], np.array([3, 4, 7, 8]))
    assert list(total) == [0, 1, 4, 5]


def test_quickstart_table_sbf():
    # Occupied slots 0, 12, 25, 37: gaps of 12/13/12/13.  A window holds
    # two occupied slots from width 13, three from 26, four from 38.
    minima = checker.sigma_window_minima(QUICKSTART_PATTERN)
    assert minima[0] == 0 and minima[1] == 0
    assert minima[12] == 11 and minima[13] == 11
    assert minima[25] == 23 and minima[26] == 23
    assert minima[37] == 34 and minima[38] == 34 and minima[50] == 46
    t = np.array([50, 51, 63, 100, 113])
    assert list(checker.sbf_sigma(QUICKSTART_PATTERN, t)) == [46, 46, 57, 92, 103]


def test_quickstart_design_is_schedulable():
    # The quickstart design: VM0 Gamma=(10,1) runs (T=80,C=6);
    # VM1 Gamma=(25,4) runs (120,10) and (200,12).
    servers = {0: (10, 1), 1: (25, 4)}
    vm_tasks = {0: [(80, 6, 80)], 1: [(120, 10, 120), (200, 12, 200)]}
    verdict, global_ok, local = checker.design_verdict(
        QUICKSTART_PATTERN, servers, vm_tasks
    )
    assert verdict and global_ok and local == {0: True, 1: True}
    # One slot less for VM1 breaks Theorem 4 (bandwidth 3/25 < U=0.1433).
    assert checker.theorem4(25, 3, vm_tasks[1]) == (False, None)
    # Budget 1 of 10 for VM0 is exactly the minimum.
    assert checker.minimum_budget(10, vm_tasks[0]) == 1


def test_theorem4_witness_hand_worked():
    # Gamma = (5, 2), tau = (T=10, C=3, D=7): U = 0.3 < 0.4, but at t=7
    # demand 3 exceeds supply sbf(7) = 1.
    assert checker.theorem4(5, 2, [(10, 3, 7)]) == (False, 7)
    # With D=T=10 the first deadline sees sbf(10) = 2 < 3: still fails.
    assert checker.theorem4(5, 2, [(10, 3, 10)]) == (False, 10)
    # Gamma = (5, 3): blackout 4, sbf(7) = 3 meets the demand of 3.
    assert checker.theorem4(5, 3, [(10, 3, 7)]) == (True, None)


def test_theorem2_hand_worked():
    # Table of 4 slots with slot 0 occupied: F/H = 3/4.
    pattern = [1, 0, 0, 0]
    # Two servers (2,1): bandwidth 1 > 3/4 -- over-utilized.
    assert checker.theorem2(pattern, [(2, 1), (2, 1)]) == (False, None)
    # (2,1) alone: demand 1 at t=2, sbf(2) = 1 (window slots 3,0 hold 1 free).
    assert checker.theorem2(pattern, [(2, 1)]) == (True, None)
    # (1,1) needs every slot; sbf(1) = 0 < 1 -- over-utilized as well.
    assert checker.theorem2(pattern, [(1, 1)]) == (False, None)
    # (4,3) uses exactly F/H: sbf(4) = 3 = demand; holds at equality.
    assert checker.theorem2(pattern, [(4, 3)]) == (True, None)
    # (2,1) + (4,1): bandwidth 3/4 = F/H, demand at t=2 is 1, at t=4 is 3,
    # but sbf(2) = 1 and sbf(4) = 3; t=3: demand 1 <= sbf(3) = 2.
    assert checker.theorem2(pattern, [(2, 1), (4, 1)]) == (True, None)
    # (3,2) alone: bandwidth 2/3 < 3/4 but sbf(3) = 2 >= 2; t=6: 4 <= 5.
    assert checker.theorem2(pattern, [(3, 2)]) == (True, None)
    # (3,2) + (12,1): bandwidth 3/4; t=3: demand 2 <= 2; t=12: 9 = 9.
    assert checker.theorem2(pattern, [(3, 2), (12, 1)]) == (True, None)
    # (2,2) is bandwidth 1: over-utilized.
    assert checker.theorem2(pattern, [(2, 2)]) == (False, None)


def test_theorem2_witness_on_bursty_table():
    # Slots 0 and 1 occupied out of 4: sbf(2) = 0, so (2,1) fails at t=2.
    assert checker.theorem2([1, 1, 0, 0], [(2, 1)]) == (False, 2)


def test_windows_are_derived_not_given():
    # Global: H=50, F=46 -> L = lcm(50, 10, 25) = 50.
    assert checker.global_window(QUICKSTART_PATTERN, [(10, 1), (25, 4)]) == 50
    # Local: Gamma=(10,1), one (80,6,80) task -> L = 80, start 9 -> 89;
    # linear crossing (0 + 2*0.1*9) / (0.1 - 0.075) = 72.
    assert checker.local_window(10, 1, [(80, 6, 80)]) == 72


def test_minimum_bandwidth_brute_force():
    vm_tasks = {0: [(80, 6, 80)], 1: [(120, 10, 120), (200, 12, 200)]}
    grid = {0: (5, 10), 1: (5, 10, 25)}
    best = checker.minimum_bandwidth(QUICKSTART_PATTERN, vm_tasks, grid)
    # VM0 (U = 0.075): (5,1) costs 1/5, (10,1) costs 1/10 and still
    # supplies sbf(80) = 7 >= 6.  VM1 (U = 0.1433): (5,1) and (10,2)
    # cost 1/5, (25,4) costs 4/25 and (25,3) falls below U.  The
    # cheapest pair {(10,1), (25,4)} is the quickstart design, which
    # passes Theorem 2: 1/10 + 4/25 = 13/50.
    assert best == Fraction(13, 50)
    assert checker.minimum_bandwidth(
        QUICKSTART_PATTERN, {0: [(10, 10, 10)]}, {0: (5, 10)}
    ) is None


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        checker.theorem4(5, 6, [])
    with pytest.raises(ValueError):
        checker.theorem4(5, 2, [(10, 11, 10)])
