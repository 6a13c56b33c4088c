"""Fixed reference work that measures how fast the host runs Python right now.

The benchmark shares a few cores of a busy host, and the speed that host
gives one process drifts by a quarter or more over minutes, for every
program alike.  ``run.py`` runs this script in a fresh interpreter between
the workload's passes and scales its timings by the ratio of a reference
time to the median time of this script (see ``run.py``), so that the drift
cancels and a change in mexcrank's own speed remains.

The work imitates the kinds of work mexcrank does, with nothing imported
from it: big-integer sums (the p(n) recurrence), small tuples and lists
(partition enumeration), dictionary counts and JSON encoding.  It is fixed:
it takes no arguments and reads nothing, so it is the same for every
commit the benchmark measures.  It prints the sha256 of its results, which
``run.py`` checks against ``CALIBRATION_DIGEST``.
"""

import hashlib
import json

P_N = 6000
ENUM_N = 38


def partition_numbers(n):
    """p(0..n) by Euler's pentagonal recurrence, with exact integers."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            g2 = g1 + k
            term = p[m - g1] + (p[m - g2] if g2 <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p[m] = total
    return p


def partitions(n, largest=None):
    """Every partition of n into parts at most ``largest``, as tuples."""
    if largest is None or largest > n:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(largest, 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def crank(parts):
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    return sum(1 for part in parts if part > ones) - ones


def main():
    p = partition_numbers(P_N)
    counts = {}
    for parts in partitions(ENUM_N):
        key = crank(parts)
        counts[key] = counts.get(key, 0) + 1
    rows = [{"n": n, "value": str(p[n])} for n in range(0, P_N + 1, 7)]
    rows += [{"crank": key, "count": counts[key]} for key in sorted(counts)]
    print(hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest())


if __name__ == "__main__":
    main()
