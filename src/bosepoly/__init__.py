"""bosepoly: high-temperature polymer-expansion estimator and exact oracle
for boson-number-truncated Bose-Hubbard lattice models."""

__version__ = "0.1.0"

SCHEMA_VERSION = "2"

from .lattice import (  # noqa: F401
    CouplingError,
    CouplingMatrix,
    Lattice,
    ModelInstance,
    OnsiteParams,
    SiteCapError,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from .fock import (  # noqa: F401
    DimensionCapError,
    EigensolverError,
    onsite_energy,
    restricted_log_partition,
    sector_blocks,
)
from .polymers import OrderCapError, Polymer, PolymerCountError, enumerate_polymers  # noqa: F401
from .expansion import (  # noqa: F401
    ExpansionConfig,
    ExpansionReport,
    approximate_log_partition,
)
from .oracle import (  # noqa: F401
    MonomialOperator,
    ThermalState,
    clustering_scan,
    expectation,
    moments,
    mutual_information,
    occupation_distribution,
    thermalize,
)
