import pytest

from ksembed.configuration import closure_generate, mub_bases, mub_seed
from ksembed.exact import E_ZERO, VecC3


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
