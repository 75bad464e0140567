"""Assembly and direct solution of the axisymmetric elliptic operator.

The stiffness matrix carries the 1/(mu0 r) coefficient evaluated at the
triangle centroid (one-point quadrature); Dirichlet conditions are imposed
by replacing boundary rows with scaled identity rows.  A load carries no
boundary values: its field with zero boundary flux comes from
:meth:`Factorization.solve` and the field of the boundary flux from
:meth:`Factorization.lift`, and the two add up to the Dirichlet solution.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import FactorizationError

MU0 = 4e-7 * np.pi


@dataclass
class StiffnessMatrix:
    """The stiffness matrix with its Dirichlet rows imposed, as
    :func:`impose_dirichlet` gives it and :func:`factorize` takes it."""
    mat: sp.csr_matrix
    constrained_rows: np.ndarray
    dirichlet_scale: float


class Factorization:
    """Reusable sparse LU factorization of the modified stiffness matrix.

    The one place that knows how the boundary condition is imposed: loads
    are solved with zero boundary values and boundary values enter only
    through :meth:`lift`, which reapplies the conditioning scale of the
    constrained rows.
    """

    def __init__(self, lu, n, constrained_rows, scale):
        self._lu = lu
        self.n = n
        self._rows = constrained_rows
        self._scale = scale

    def solve(self, load):
        """Field of ``load`` that is zero on the boundary; the load's
        constrained rows are ignored."""
        load = np.array(load, dtype=np.float64)
        if load.shape != (self.n,):
            raise ValueError(f"load must have length {self.n}")
        return self._solve_homogeneous(load)

    def solve_multi(self, columns):
        """:meth:`solve` of every column, in one call on the factor."""
        columns = np.array(columns, dtype=np.float64)
        if columns.shape[0] != self.n:
            raise ValueError(f"columns must have {self.n} rows")
        return self._solve_homogeneous(columns)

    def _solve_homogeneous(self, rhs):
        rhs[self._rows] = 0.0
        x = self._lu.solve(rhs)
        x[self._rows] = 0.0
        return x

    def lift(self, g_d):
        """Load-free field taking the values ``g_d`` exactly on the
        boundary.  Raises ValueError unless ``g_d`` holds one finite value
        per boundary node."""
        g_d = np.asarray(g_d, dtype=np.float64)
        if g_d.shape != self._rows.shape or not np.all(np.isfinite(g_d)):
            raise ValueError("g_d must provide one finite value per "
                             "boundary node")
        rhs = np.zeros(self.n)
        rhs[self._rows] = g_d * self._scale
        x = self._lu.solve(rhs)
        x[self._rows] = g_d
        return x


def assemble_stiffness(mesh, mu0=MU0):
    """Stiffness matrix of the Neumann problem: entries are the integrals of
    (1/(mu0 r)) grad v_i . grad v_j, assembled triangle by triangle."""
    tris = mesh.triangles
    grads = mesh.grads()                     # (T, 2, 3)
    ra, rb, rc = np.take(mesh.nodes[:, 0], tris.T)   # corner radii
    coef = mesh.areas() / (mu0 * ((ra + rb + rc) / 3))   # (T,)
    # element matrices: coef * G^T G, shape (T, 3, 3)
    local = grads[:, 0, :, None] * grads[:, 0, None, :]
    local += grads[:, 1, :, None] * grads[:, 1, None, :]
    local *= coef[:, None, None]
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def impose_dirichlet(K, boundary_ids):
    """:class:`StiffnessMatrix` of ``K`` with each constrained row replaced
    by a scaled identity row.

    The scale matches the typical stiffness diagonal so the modified matrix
    stays well conditioned; :meth:`Factorization.lift` reapplies it to the
    boundary values."""
    boundary_ids = np.asarray(boundary_ids, dtype=np.int64)
    n = K.shape[0]
    scale = float(np.abs(K.diagonal()).mean()) or 1.0
    keep = np.ones(n)
    keep[boundary_ids] = 0.0
    ident = sp.coo_matrix((np.full(len(boundary_ids), scale),
                           (boundary_ids, boundary_ids)), shape=(n, n))
    return StiffnessMatrix((sp.diags(keep) @ K + ident).tocsr(),
                           boundary_ids, scale)


def factorize(stiff):
    try:
        # minimum degree on A^T + A (symmetric but for the Dirichlet rows)
        lu = splu(stiff.mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise FactorizationError(f"singular stiffness matrix: {exc}") from exc
    return Factorization(lu, stiff.mat.shape[0], stiff.constrained_rows,
                         stiff.dirichlet_scale)
