import pytest

from mdlab.extremal import enumerate_connected, md_census, verify_f, verify_g

# OEIS A001349: connected graphs on n unlabeled vertices.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

SEVEN = pytest.param(7, marks=pytest.mark.slow)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, SEVEN])
def test_enumeration_counts(n):
    assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, SEVEN])
def test_thresholds_verified(n):
    for r in range(1, n):
        for report in (verify_f(n, r), verify_g(n, r)):
            assert report.verified, report
            assert report.stats["graphs_checked"] == CONNECTED_COUNTS[n]


def test_parallel_census_equals_serial():
    # Passing graphs= keeps the census cache, which ignores jobs, out of it.
    graphs = list(enumerate_connected(6))
    serial = md_census(6, graphs=graphs, jobs=1)
    assert md_census(6, graphs=graphs, jobs=2) == serial
    assert len(serial) == CONNECTED_COUNTS[6]
