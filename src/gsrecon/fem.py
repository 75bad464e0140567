"""Assembly and direct solution of the axisymmetric elliptic operator.

The stiffness matrix carries the 1/(mu0 r) coefficient evaluated at the
triangle centroid (one-point quadrature); Dirichlet conditions are imposed
by replacing boundary rows with scaled identity rows.  A load carries no
boundary values: its field with zero boundary flux comes from
:meth:`Factorization.solve` and the field of the boundary flux from
:meth:`Factorization.lift`, and the two add up to the Dirichlet solution.
:meth:`Factorization.solve_multi` on a factor of ``SPLIT_NNZ`` nonzeros or
more runs on two threads when the process may use two CPUs.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import FactorizationError, StateError

MU0 = 4e-7 * np.pi
# on 2 vCPUs the split gains nothing at 39 k nonzeros (40x40) and 15 % at 67 k
SPLIT_NNZ = 50_000
_workers = {}   # pid -> worker; a forked child's inherited one never runs


@dataclass
class StiffnessMatrix:
    mat: sp.csr_matrix
    dirichlet_applied: bool
    constrained_rows: np.ndarray
    dirichlet_scale: float = 1.0


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
        """:meth:`solve` of every column.  A split gives the worker the first
        8 round(k / 16) of k columns: BLAS kernels treat right-hand sides in
        groups (4 here), so each column has the bits of a one-call solve."""
        columns = np.array(columns, dtype=np.float64)
        if columns.shape[0] != self.n:
            raise ValueError(f"columns must have {self.n} rows")
        cut = 8 * round(columns.shape[1] / 16) if columns.ndim == 2 else 0
        split = (self._lu.nnz >= SPLIT_NNZ and hasattr(os, "sched_getaffinity")
                 and len(os.sched_getaffinity(0)) > 1)
        return self._solve_homogeneous(columns, cut if split else 0)

    def _solve_homogeneous(self, rhs, cut=0):
        rhs[self._rows] = 0.0
        if cut:
            worker = _workers.get(os.getpid()) or _workers.setdefault(
                os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="lu"))
            first = worker.submit(self._lu.solve, rhs[:, :cut])
            x = np.empty(rhs.shape, order="F")    # the order lu.solve gives
            x[:, cut:] = self._lu.solve(rhs[:, cut:])
            x[:, :cut] = first.result()
        else:
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
    areas = mesh.areas()
    grads = mesh.grads()                     # (T, 2, 3)
    r_c = mesh.nodes[tris][:, :, 0].mean(axis=1)
    coef = areas / (mu0 * r_c)               # (T,)
    # element matrices: coef * G^T G, shape (T, 3, 3)
    local = coef[:, None, None] * np.einsum("tka,tkb->tab", grads, grads)
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    K = sp.coo_matrix((local.reshape(-1), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    return StiffnessMatrix(K, False, np.array([], dtype=np.int64))


def impose_dirichlet(stiff, boundary_ids):
    """Replace each constrained row by a scaled identity row.

    The scale matches the typical stiffness diagonal so the modified matrix
    stays well conditioned; :meth:`Factorization.lift` reapplies it to the
    boundary values."""
    if stiff.dirichlet_applied:
        raise StateError("Dirichlet rows already imposed")
    boundary_ids = np.asarray(boundary_ids, dtype=np.int64)
    n = stiff.mat.shape[0]
    scale = float(np.abs(stiff.mat.diagonal()).mean()) or 1.0
    keep = np.ones(n)
    keep[boundary_ids] = 0.0
    zero_rows = sp.diags(keep) @ stiff.mat
    ident = sp.coo_matrix((np.full(len(boundary_ids), scale),
                           (boundary_ids, boundary_ids)), shape=(n, n))
    K = (zero_rows + ident).tocsr()
    return StiffnessMatrix(K, True, boundary_ids, scale)


def factorize(stiff):
    if not stiff.dirichlet_applied:
        raise StateError("factorize requires the Dirichlet-modified matrix")
    try:
        # minimum degree on A^T + A (symmetric but for the Dirichlet rows)
        lu = splu(stiff.mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise FactorizationError(f"singular stiffness matrix: {exc}") from exc
    return Factorization(lu, stiff.mat.shape[0], stiff.constrained_rows,
                         stiff.dirichlet_scale)
