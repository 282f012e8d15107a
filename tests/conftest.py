import signal

import pytest

from ksembed.configuration import closure_generate, mub_bases, mub_seed
from ksembed.exact import E_ZERO, VecC3


#: seconds any one test may run; the slowest takes about 3 s on 2 cores
TEST_TIME_BOUND = 120


class TimeBoundExceeded(BaseException):
    """A BaseException, so that neither the CLI's broad handler nor
    Hypothesis (which would retry and shrink) treats it as a failure to
    catch: it ends the test that hung."""


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs past TEST_TIME_BOUND, so that a hang names its
    test; SIGALRM, where the platform has it."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeBoundExceeded(f"test ran past {TEST_TIME_BOUND} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_BOUND)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def full_config():
    """The 165-ray configuration, generated once per session."""
    return closure_generate(mub_seed())


@pytest.fixture(scope="session")
def bases():
    return mub_bases()


# M = LIFT is real with M^T M = 25 I, so <M u, M v> = 25 <u, v>, and it
# scales a first coordinate by 5: the canonical form of M v is M v times a
# positive rational whenever v starts with a positive integer, so edges and
# purely imaginary pairs among such rays survive canonicalization, while
# the coefficients grow by 5^k under M^k (past 10^30 at k = 43).
LIFT = ((5, 0, 0), (0, 3, -4), (0, 4, 3))


def lifted(vecs, k):
    """M^k v for every v in ``vecs``."""
    for _ in range(k):
        vecs = [VecC3(tuple(sum((v.coords[s] * m for s, m in enumerate(row)), E_ZERO)
                            for row in LIFT)) for v in vecs]
    return vecs


def forking(fake):
    """A stub engine ``fake(problem, cover, budget)`` as maximization calls
    it: the watched colour search forks every line at its root, so each
    single exclusion is one more call of ``fake``."""
    def engine(problem, cover, budget, start=None, forks=None):
        if forks is not None:
            root = ((0, 0, cover, cover, cover, cover),), 0, 0, 0
            forks.update(dict.fromkeys(range(len(problem.rays)), root))
        return fake(problem, cover, budget)
    return engine


def losing_fork(solve, c):
    """``solve`` with the watched colour search's fork of context c lost,
    so that c's line takes that search's record for its own."""
    def engine(problem, cover, budget, start=None, forks=None):
        got = solve(problem, cover, budget, start, forks)
        if forks is not None:
            del forks[c]
        return got
    return engine
