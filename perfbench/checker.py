"""Reference checker for the benchmark's outputs.

Written from the paper's equations alone: nothing here imports
``repro.analysis`` (or any other ``repro`` module), so a fault in the
program's analysis engines cannot hide itself by agreeing with its own
reference.  Every test is brute force -- the inequality is evaluated at
*every* integer ``t`` up to a horizon this module derives itself -- and
vectorized with numpy so that checking a whole run costs seconds.

Conventions: a task is a ``(period, wcet, deadline)`` triple with
``wcet <= deadline <= period``; a server is a ``(pi, theta)`` pair with
``0 < theta <= pi``; a slot table sigma* is a 0/1 list (1 = occupied by
the P-channel).

Horizons (why checking a finite window decides the infinite test):

* Theorem 1/2 (global).  With ``U = sum theta/pi`` and ``f = F/H``:
  ``U > f`` fails in the long run; otherwise let ``L = lcm(H, pi_i)``.
  ``sbf(sigma, t + L) = sbf(sigma, t) + f*L`` and the server demand
  grows by exactly ``U*L`` over ``L``, so the slack is non-decreasing
  from one window of ``L`` to the next and ``[0, L)`` suffices.  When
  ``U < f`` the linear bounds ``sbf >= f*(t - (H - 1))`` and
  ``dbf <= U*t`` also clear every ``t >= f*(H - 1)/(f - U)``.
* Theorem 3/4 (local).  With ``alpha = theta/pi`` and ``U = sum C/T``:
  ``U > alpha`` fails; otherwise, for ``t >= pi - theta`` Eq. (8)
  satisfies ``sbf(t + pi) = sbf(t) + theta`` while every sporadic dbf
  satisfies ``dbf(t + L) <= dbf(t) + U*L`` for ``L = lcm(pi, T_k)``, so
  ``[0, pi - theta + L)`` suffices.  When ``U < alpha`` the linear
  bounds ``sbf >= alpha*(t - 2*(pi - theta))`` and
  ``dbf <= U*(t + max(T - D))`` also clear every ``t`` beyond their
  crossing point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Task = Tuple[int, int, int]
Server = Tuple[int, int]

#: Refuse windows beyond this many points (a generator producing such
#: inputs is a benchmark bug, not a program fault).
MAX_WINDOW = 50_000_000

#: Points evaluated per numpy chunk.
CHUNK = 1 << 20


class CheckerLimit(RuntimeError):
    """An input whose brute-force window exceeds :data:`MAX_WINDOW`."""


# -- supply ------------------------------------------------------------------


def sigma_window_minima(pattern: Sequence[int]) -> np.ndarray:
    """``m[w]`` = minimum free slots over every window of ``w`` slots.

    ``w`` ranges over ``0..H``; windows wrap around the hyper-period
    because sigma repeats sigma* forever.
    """
    h = len(pattern)
    if h == 0:
        raise ValueError("empty slot table")
    free = 1 - np.asarray(pattern, dtype=np.int64)
    prefix = np.concatenate(([0], np.cumsum(np.concatenate((free, free)))))
    minima = np.zeros(h + 1, dtype=np.int64)
    starts = np.arange(h)
    for width in range(1, h + 1):
        minima[width] = int((prefix[starts + width] - prefix[starts]).min())
    return minima


def sbf_sigma(pattern: Sequence[int], t, minima: Optional[np.ndarray] = None):
    """Eqs. (1)-(2): supply of sigma in any window of length ``t``."""
    h = len(pattern)
    f = h - int(sum(pattern))
    if minima is None:
        minima = sigma_window_minima(pattern)
    t = np.asarray(t, dtype=np.int64)
    return (t // h) * f + minima[t % h]


def sbf_server(pi: int, theta: int, t):
    """Eq. (8): periodic resource model supply, worst-case phasing."""
    _check_server(pi, theta)
    t = np.asarray(t, dtype=np.int64)
    shifted = t - (pi - theta)
    whole = np.floor_divide(shifted, pi)
    tail = np.maximum(shifted - whole * pi - (pi - theta), 0)
    return np.where(shifted < 0, 0, whole * theta + tail)


def sbf_server_by_sliding(pi: int, theta: int, t: int) -> int:
    """Eq. (8) by construction: slide a window over the worst pattern.

    The budget arrives as early as possible in one period and as late
    as possible in every later one; the window starting right after the
    early budget sees the longest blackout.  Slow; the tests use it to
    pin :func:`sbf_server`.
    """
    _check_server(pi, theta)
    pattern = [1] * theta + [0] * (pi - theta)
    for _period in range(t // pi + 3):
        pattern += [0] * (pi - theta) + [1] * theta
    return min(sum(pattern[start : start + t]) for start in range(2 * pi))


# -- demand ------------------------------------------------------------------


def dbf_server(pi: int, theta: int, t):
    """Eq. (3): ``floor(t / pi) * theta``."""
    _check_server(pi, theta)
    return (np.asarray(t, dtype=np.int64) // pi) * theta


def dbf_sporadic(task: Task, t):
    """Eq. (9): ``(floor((t - D) / T) + 1) * C`` for ``t >= D``, else 0."""
    period, wcet, deadline = task
    t = np.asarray(t, dtype=np.int64)
    return np.where(t >= deadline, ((t - deadline) // period + 1) * wcet, 0)


def dbf_taskset(tasks: Sequence[Task], t):
    t = np.asarray(t, dtype=np.int64)
    total = np.zeros(t.shape, dtype=np.int64)
    for task in tasks:
        total += dbf_sporadic(task, t)
    return total


# -- the theorems by brute force --------------------------------------------


def _lcm(values: Sequence[int]) -> int:
    result = 1
    for value in values:
        result = result * value // math.gcd(result, value)
    return result


def global_window(pattern: Sequence[int], servers: Sequence[Server]) -> int:
    """Last ``t`` the global test must examine (inclusive)."""
    h = len(pattern)
    f = Fraction(h - int(sum(pattern)), h)
    bandwidth = sum((Fraction(theta, pi) for pi, theta in servers), Fraction(0))
    window = _lcm([h] + [pi for pi, _theta in servers])
    if bandwidth < f:
        linear = f * (h - 1) / (f - bandwidth)
        window = min(window, math.ceil(linear))
    return window


def local_window(pi: int, theta: int, tasks: Sequence[Task]) -> int:
    """Last ``t`` the local test must examine (inclusive)."""
    alpha = Fraction(theta, pi)
    utilization = sum((Fraction(c, p) for p, c, _d in tasks), Fraction(0))
    window = (pi - theta) + _lcm([pi] + [p for p, _c, _d in tasks])
    if utilization < alpha:
        gap = max(p - d for p, _c, d in tasks)
        linear = (utilization * gap + 2 * alpha * (pi - theta)) / (
            alpha - utilization
        )
        window = min(window, math.ceil(linear))
    return window


def _first_violation(window: int, demand_fn, supply_fn) -> Optional[int]:
    if window > MAX_WINDOW:
        raise CheckerLimit(f"brute-force window {window} exceeds {MAX_WINDOW}")
    for start in range(0, window + 1, CHUNK):
        t = np.arange(start, min(window, start + CHUNK - 1) + 1, dtype=np.int64)
        bad = np.flatnonzero(demand_fn(t) > supply_fn(t))
        if bad.size:
            return int(t[bad[0]])
    return None


def theorem2(pattern: Sequence[int], servers: Sequence[Server]) -> Tuple[bool, Optional[int]]:
    """Global test: ``sum_i dbf(Gamma_i, t) <= sbf(sigma, t)`` for all t.

    Returns ``(verdict, first failing t)``; an over-utilized set fails
    without a witness (it fails somewhere, possibly far out).
    """
    servers = [(int(pi), int(theta)) for pi, theta in servers]
    for pi, theta in servers:
        _check_server(pi, theta)
    if not servers:
        return True, None
    h = len(pattern)
    f = Fraction(h - int(sum(pattern)), h)
    if sum((Fraction(theta, pi) for pi, theta in servers), Fraction(0)) > f:
        return False, None
    minima = sigma_window_minima(pattern)

    def demand(t):
        total = np.zeros(t.shape, dtype=np.int64)
        for pi, theta in servers:
            total += dbf_server(pi, theta, t)
        return total

    failing = _first_violation(
        global_window(pattern, servers),
        demand,
        lambda t: sbf_sigma(pattern, t, minima),
    )
    return failing is None, failing


def theorem4(pi: int, theta: int, tasks: Sequence[Task]) -> Tuple[bool, Optional[int]]:
    """Local test: ``sum_k dbf(tau_k, t) <= sbf(Gamma, t)`` for all t."""
    _check_server(pi, theta)
    tasks = [_check_task(task) for task in tasks]
    if not tasks:
        return True, None
    utilization = sum((Fraction(c, p) for p, c, _d in tasks), Fraction(0))
    if utilization > Fraction(theta, pi):
        return False, None
    failing = _first_violation(
        local_window(pi, theta, tasks),
        lambda t: dbf_taskset(tasks, t),
        lambda t: sbf_server(pi, theta, t),
    )
    return failing is None, failing


def design_verdict(
    pattern: Sequence[int],
    servers: Dict[int, Server],
    vm_tasks: Dict[int, Sequence[Task]],
) -> Tuple[bool, bool, Dict[int, bool]]:
    """``(system verdict, Theorem-2 verdict, per-VM Theorem-4 verdicts)``.

    A VM with run-time tasks but no server makes the system infeasible.
    """
    local = {
        vm: theorem4(pi, theta, vm_tasks.get(vm, ()))[0]
        for vm, (pi, theta) in servers.items()
    }
    global_ok = theorem2(pattern, list(servers.values()))[0]
    covered = all(vm in servers for vm, tasks in vm_tasks.items() if tasks)
    return covered and global_ok and all(local.values()), global_ok, local


def minimum_budget(pi: int, tasks: Sequence[Task]) -> Optional[int]:
    """Smallest ``theta <= pi`` passing Theorem 4 (sbf grows with theta)."""
    if not theorem4(pi, pi, tasks)[0]:
        return None
    low, high = 1, pi
    while low < high:
        middle = (low + high) // 2
        if theorem4(pi, middle, tasks)[0]:
            high = middle
        else:
            low = middle + 1
    return low


def minimum_bandwidth(
    pattern: Sequence[int],
    vm_tasks: Dict[int, Sequence[Task]],
    candidate_periods: Dict[int, Sequence[int]],
) -> Optional[Fraction]:
    """Brute-force minimum ``sum theta/pi`` over a candidate-period grid.

    Every VM picks one candidate period with its minimum budget; the
    cheapest combination passing Theorem 2 wins.  ``None`` when no
    combination is feasible.
    """
    vms = sorted(vm_tasks)
    options: List[List[Tuple[Fraction, Server]]] = []
    for vm in vms:
        choices = []
        for pi in candidate_periods[vm]:
            theta = minimum_budget(pi, vm_tasks[vm])
            if theta is not None:
                choices.append((Fraction(theta, pi), (pi, theta)))
        if not choices:
            return None
        options.append(choices)
    combos = sorted(
        (sum(choice[0] for choice in combo), [choice[1] for choice in combo])
        for combo in itertools.product(*options)
    )
    for bandwidth, servers in combos:
        if theorem2(pattern, servers)[0]:
            return bandwidth
    return None


# -- validation ----------------------------------------------------------------


def _check_server(pi: int, theta: int) -> None:
    if pi < 1 or not 0 < theta <= pi:
        raise ValueError(f"invalid server (pi={pi}, theta={theta})")


def _check_task(task: Task) -> Task:
    period, wcet, deadline = (int(value) for value in task)
    if not 0 < wcet <= deadline <= period:
        raise ValueError(f"invalid task (T={period}, C={wcet}, D={deadline})")
    return period, wcet, deadline
