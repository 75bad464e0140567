"""Assembly and direct solution of the axisymmetric elliptic operator.

The stiffness matrix carries the 1/(mu0 r) coefficient evaluated at the
triangle centroid (one-point quadrature); Dirichlet conditions are imposed
by replacing boundary rows with identity rows scaled as only
:func:`impose_dirichlet` knows.  The field of a load with zero boundary
flux (:meth:`Factorization.solve`) and the field of the boundary flux
(:meth:`Factorization.lift`) add up to the Dirichlet solution.
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


class Factorization:
    """Reusable sparse LU factorization of the modified stiffness matrix.

    Every solve is homogeneous (zero boundary values): :meth:`lift` solves
    the load -K_B g_d that the boundary values g_d put on the free rows
    (K_B the constrained columns), then sets the boundary rows to g_d.
    """

    def __init__(self, lu, constrained_columns, constrained_rows):
        self._lu = lu
        self.n = lu.shape[0]
        self._k_b = constrained_columns
        self._rows = constrained_rows

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
        x = self.solve(-(self._k_b @ g_d))
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
    """:class:`StiffnessMatrix` of ``K``, which stores its diagonal as
    :func:`assemble_stiffness` gives it, with each constrained row replaced
    by a scaled identity row.

    The scale matches the typical stiffness diagonal so the modified matrix
    stays well conditioned; no other function needs it.  The rows are
    edited in a copy of ``K``, whose zero entries (the constrained rows'
    and any that cancelled in assembly) are then dropped."""
    boundary_ids = np.asarray(boundary_ids, dtype=np.int64)
    mat = sp.csr_matrix(K, dtype=np.float64, copy=True)
    scale = float(np.abs(mat.diagonal()).mean()) or 1.0
    row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    constrained = np.zeros(mat.shape[0], dtype=bool)
    constrained[boundary_ids] = True
    on = constrained[row]
    mat.data[on] = np.where(mat.indices[on] == row[on], scale, 0.0)
    mat.eliminate_zeros()
    return StiffnessMatrix(mat, boundary_ids)


def factorize(stiff):
    mat = stiff.mat.tocsc()
    try:
        # minimum degree on A^T + A (symmetric but for the Dirichlet rows)
        lu = splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise FactorizationError(f"singular stiffness matrix: {exc}") from exc
    return Factorization(lu, mat[:, stiff.constrained_rows],
                         stiff.constrained_rows)
