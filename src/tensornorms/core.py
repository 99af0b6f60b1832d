"""Dense order-3 tensors stored as matrix slices, plus test-tensor generators."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor3",
    "TensorD",
    "RankOneDecomposition",
    "evaluate",
    "contract_first",
    "flatten",
    "assemble",
    "gen_orthogonal_test",
    "gen_orthogonal_test_order4",
    "gen_gaussian",
    "gen_sequence_example",
    "read_tensor",
    "write_tensor",
]

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Tensor3:
    """A real ell x m x n tensor kept as ell contiguous m x n slices.

    ``slices[i]`` is the matrix obtained by fixing the first index to i,
    so entry (i, j, k) of the tensor is ``slices[i][j, k]``.
    """

    slices: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.slices, dtype=float)
        if a.ndim != 3:
            raise ValueError(f"expected a 3-way array, got shape {a.shape}")
        if min(a.shape) < 1:
            raise ValueError(f"all dimensions must be positive, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("tensor has non-finite entries")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "slices", a)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.slices.shape

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.slices))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(self.slices + other.slices)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(self.slices - other.slices)

    def __mul__(self, c: float) -> "Tensor3":
        return Tensor3(self.slices * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class TensorD:
    """A dense order-d tensor (d >= 3), row-major index order."""

    values: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if a.ndim < 3:
            raise ValueError(f"order must be at least 3, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("tensor has non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def order(self) -> int:
        return self.values.ndim

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class RankOneDecomposition:
    """Weighted rank-one terms (lambda_i, x_i, y_i, z_i[, ...]) with unit factors."""

    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        checked = []
        for term in self.terms:
            weight = float(term[0])
            if not np.isfinite(weight):
                raise ValueError("weights must be finite")
            factors = []
            for v in term[1:]:
                v = np.array(v, dtype=float)  # own copy: frozen, pins nothing
                if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                    raise ValueError("factor vectors must have unit norm")
                v.setflags(write=False)
                factors.append(v)
            checked.append((weight, *factors))
        object.__setattr__(self, "terms", tuple(checked))

    def __len__(self) -> int:
        return len(self.terms)

    def weight_sum(self) -> float:
        return float(sum(abs(t[0]) for t in self.terms))


def named_factors(vectors) -> dict:
    """JSON form of one vector per mode: x, y, z for three, else x1..xd."""
    keys = ["x", "y", "z"] if len(vectors) == 3 else [
        f"x{i + 1}" for i in range(len(vectors))
    ]
    return {k: v.tolist() for k, v in zip(keys, vectors)}


def evaluate(T: Tensor3, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """Trilinear form sum_ijk t_ijk x_i y_j z_k."""
    ell, m, n = T.dims
    x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    if x.shape != (ell,) or y.shape != (m,) or z.shape != (n,):
        raise ValueError(
            f"vector lengths {x.shape}, {y.shape}, {z.shape} do not match dims {T.dims}"
        )
    return float(y @ contract_first(T, x) @ z)


def contract_first(T: Tensor3, x: np.ndarray) -> np.ndarray:
    """First-mode contraction sum_i x_i T_i, an m x n matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (T.dims[0],):
        raise ValueError(f"expected vector of length {T.dims[0]}, got shape {x.shape}")
    return np.tensordot(x, T.slices, axes=(0, 0))


def flatten(T: Tensor3) -> np.ndarray:
    """Stack the slices top to bottom into an (ell*m) x n matrix."""
    ell, m, n = T.dims
    return T.slices.reshape(ell * m, n)


def assemble(dec: RankOneDecomposition, dims: tuple[int, int, int]) -> Tensor3:
    """Dense sum of weighted outer products."""
    ell, m, n = dims
    out = np.zeros((ell, m, n))
    for weight, x, y, z in dec.terms:
        if x.shape != (ell,) or y.shape != (m,) or z.shape != (n,):
            raise ValueError("factor lengths do not match requested dims")
        out += weight * np.einsum("i,j,k->ijk", x, y, z)
    return Tensor3(out)


def _random_orthonormal(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """count orthonormal rows in R^dim via QR of a Gaussian matrix."""
    if count > dim:
        raise ValueError(f"cannot draw {count} orthonormal vectors in R^{dim}")
    g = rng.standard_normal((dim, count))
    q, r = np.linalg.qr(g)
    # fix signs so the draw is a deterministic function of g
    q = q * np.sign(np.diag(r))
    return q.T


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def gen_orthogonal_test(
    ell: int, m: int, n: int, r: int, seed: int
) -> tuple[Tensor3, RankOneDecomposition]:
    """Random tensor with known norms from a structured orthogonal decomposition.

    The terms satisfy (x_i'x_j)(y_i'y_j) = 0 and z_i'z_j = 0 for i != j, which
    makes the flattening an SVD: the spectral norm is max(lambda) and the
    nuclear norm is sum(lambda).
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r > min(ell * m, n):
        raise ValueError(f"r={r} infeasible for dims ({ell},{m},{n})")
    rng = np.random.default_rng(seed)
    weights = np.abs(rng.standard_normal(r)) + 0.1
    zs = _random_orthonormal(rng, n, r)
    if r <= m:
        ys = _random_orthonormal(rng, m, r)
        xs = [_random_unit(rng, ell) for _ in range(r)]
    else:
        # split terms into groups of size <= m; within a group the y's are
        # orthonormal and the group shares one x, with x's orthonormal
        # across groups
        n_groups = -(-r // m)
        group_xs = _random_orthonormal(rng, ell, n_groups)
        xs, ys = [], []
        for g in range(n_groups):
            size = min(m, r - g * m)
            ys.extend(_random_orthonormal(rng, m, size))
            xs.extend([group_xs[g]] * size)
    terms = [(weights[i], xs[i], ys[i], zs[i]) for i in range(r)]
    dec = RankOneDecomposition(tuple(terms))
    return assemble(dec, (ell, m, n)), dec


def gen_orthogonal_test_order4(
    dims: tuple[int, int, int, int], r: int, seed: int
) -> tuple[TensorD, RankOneDecomposition]:
    """Order-4 analog: (x_i'x_j)(z_i'z_j) = (y_i'y_j)(w_i'w_j) = 0 for i != j.

    Realized by drawing orthonormal z's and w's, so again the norms are
    max(lambda) and sum(lambda).
    """
    n1, n2, n3, n4 = dims
    if r > min(n3, n4):
        raise ValueError(f"r={r} infeasible for dims {dims}")
    rng = np.random.default_rng(seed)
    weights = np.abs(rng.standard_normal(r)) + 0.1
    zs = _random_orthonormal(rng, n3, r)
    ws = _random_orthonormal(rng, n4, r)
    terms = []
    vals = np.zeros(dims)
    for i in range(r):
        x, y = _random_unit(rng, n1), _random_unit(rng, n2)
        terms.append((weights[i], x, y, zs[i], ws[i]))
        vals += weights[i] * np.einsum("i,j,k,l->ijkl", x, y, zs[i], ws[i])
    return TensorD(vals), RankOneDecomposition(tuple(terms))


def gen_gaussian(ell: int, m: int, n: int, seed: int) -> Tensor3:
    """Tensor with i.i.d. standard normal entries, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return Tensor3(rng.standard_normal((ell, m, n)))


def gen_sequence_example() -> Tensor3:
    """The 3x3x3 tensor with t_ijk = i + j + k (1-based indices)."""
    i, j, k = np.meshgrid(np.arange(1, 4), np.arange(1, 4), np.arange(1, 4),
                          indexing="ij")
    return Tensor3((i + j + k).astype(float))


# --- file formats ----------------------------------------------------------

_BIN_MAGIC_LEN = 24  # three little-endian u64 dims


def write_tensor(T: Tensor3, path: str, binary: bool = False) -> None:
    """Write a tensor file: JSON {"dims", "values"} or packed binary."""
    ell, m, n = T.dims
    if binary:
        with open(path, "wb") as f:
            f.write(struct.pack("<3Q", ell, m, n))
            f.write(np.ascontiguousarray(T.slices, dtype="<f8").tobytes())
    else:
        payload = {"dims": [ell, m, n], "values": T.slices.ravel().tolist()}
        with open(path, "w") as f:
            json.dump(payload, f)


def read_tensor(path: str) -> Tensor3:
    """Read a tensor file, JSON or packed binary, told apart by content.

    A file is binary when the dims in its 24-byte header account for its
    exact length; any other file must be a JSON object with "dims" and
    "values".  A malformed file raises a ValueError that names the bad field.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) >= _BIN_MAGIC_LEN:
        dims = struct.unpack("<3Q", raw[:_BIN_MAGIC_LEN])
        if len(raw) == _BIN_MAGIC_LEN + 8 * math.prod(dims):
            values = np.frombuffer(raw[_BIN_MAGIC_LEN:], dtype="<f8")
            return Tensor3(values.reshape(dims).astype(float))
    try:
        payload = json.loads(raw)
    except ValueError as exc:  # also a UnicodeDecodeError
        raise ValueError(
            f"not a tensor file: its {len(raw)} bytes match no binary header "
            f"and are not JSON ({exc})"
        ) from None
    if not isinstance(payload, dict):
        raise ValueError("tensor JSON must be an object with dims and values")
    for key in ("dims", "values"):
        if key not in payload:
            raise ValueError(f"tensor JSON has no {key!r} field")
    dims = payload["dims"]
    if not (isinstance(dims, list) and all(isinstance(d, int) for d in dims)):
        raise ValueError(f"tensor JSON 'dims' must be a list of integers, got {dims!r}")
    if len(dims) != 3:
        raise ValueError(f"expected 3 dims, got {dims}")
    try:
        values = np.asarray(payload["values"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("tensor JSON 'values' must be a list of numbers") from None
    if values.size != math.prod(dims):
        raise ValueError("value count does not match dims")
    return Tensor3(values.reshape(dims))
