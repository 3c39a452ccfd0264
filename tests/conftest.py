import numpy as np
import pytest

from sshent import model
from sshent.groundstate import OccupationPolicy, filled_sea, localized_zero_modes
from sshent.specialfn import EllipticParams

# the standard two-defect ring used throughout: N = 400, defects at L/4, 3L/4
DEFECT_CELLS = (50, 150)
ELL = 20
DEFECT_WINDOW = (41, ELL)  # contains the first defect (cell 50)
TOP_WINDOW = (175, ELL)
TRIV_WINDOW = (90, ELL)


def two_defect_chain(delta, kinds=("one_site", "one_site"), n_sites=400):
    return model.ChainSpec(
        n_sites=n_sites,
        hopping=1.0,
        dimerization=delta,
        boundary="periodic",
        defects=tuple(
            model.DefectSpec(cell, kind) for cell, kind in zip(DEFECT_CELLS, kinds)
        ),
    )


def open_chain(defects=()):
    """An open 400-site chain at delta = 0.3 with the given defect kinds at cell 60."""
    return model.ChainSpec(
        n_sites=400, dimerization=0.3, boundary="open",
        defects=tuple(model.DefectSpec(60, kind) for kind in defects),
    )


def sea_of(spec, width=ELL):
    """The chain's filled sea for windows of up to ``width`` cells, as the CLI
    builds it for a scan of ``width``-cell windows."""
    return filled_sea(spec, width)


@pytest.fixture(scope="session")
def chain03():
    return two_defect_chain(0.3)


@pytest.fixture(scope="session")
def sea03(chain03):
    return sea_of(chain03)


@pytest.fixture(scope="session")
def chain_dimerized():
    return two_defect_chain(1.0)


@pytest.fixture(scope="session")
def sea_dimerized(chain_dimerized):
    return sea_of(chain_dimerized)


@pytest.fixture(scope="session")
def chain_mixed():
    return two_defect_chain(0.3, kinds=("one_site", "three_site"))


@pytest.fixture(scope="session")
def params03():
    return EllipticParams.from_dimerization(0.3)


@pytest.fixture(scope="session")
def zero_pair03(sea03, chain03):
    return localized_zero_modes(sea03, chain03)


@pytest.fixture(scope="session")
def below_half():
    return OccupationPolicy.below_half()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
