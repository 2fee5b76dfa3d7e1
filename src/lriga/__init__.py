"""Low-rank isogeometric analysis: Tucker-format solvers for 3D Poisson
and linear-elasticity problems on spline patches."""

__version__ = "0.1.0"

from .tucker import (  # noqa: F401
    TuckerTensor3,
    TuckerOperator3,
    to_dense,
    tucker_add,
    tucker_inner,
    tucker_matvec,
)
from .truncation import sthosvd, truncate_rel, truncate_dynamic  # noqa: F401
from .bsplines import (  # noqa: F401
    BC_DIRICHLET,
    BC_NEUMANN,
    SplineSpace1D,
    assemble_pencil,
)
from .geometry import GeometryMap, get_geometry  # noqa: F401
from .assembly import assemble_system  # noqa: F401
from .eigen import approx_eigen  # noqa: F401
from .fastdiag import build_lowrank_fd  # noqa: F401
from .tpcg import TpcgConfig, SolveReport, tpcg, error_norms  # noqa: F401
from .elasticity import (  # noqa: F401
    BlockTuckerVector,
    BlockTuckerOperator,
    assemble_elasticity,
    block_preconditioner,
    block_tpcg,
)
