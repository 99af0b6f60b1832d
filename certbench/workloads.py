"""Seeded instances and the solve list of each benchmark workload.

A workload is a fixed list of solves.  Each solve names an instance, a norm
("spectral" or "nuclear") and a target relative error ``eps``.  Every round
of a run gets fresh instances from ``np.random.default_rng([seed, round])``,
so a round never repeats the inputs of an earlier one and nothing an earlier
round computed can be reused.

The random draws are chosen so that the amount of solver work does not
depend on them:

* Spectral-only instances are drawn afresh.  Grid enumeration does the same
  number of top-sigma evaluations for every tensor of a given shape and
  ``eps``, so a fresh draw changes the numbers but not the work.
* Instances that also get a nuclear solve start from a base tensor with a
  fixed generator seed, which the draw then rotates by random orthogonal
  matrices on the two large modes.  The rotation keeps both norms, the known
  truth and the splitting solver's iteration count (the solver is
  equivariant under it), while a fresh draw would change the iteration count
  by up to 2x from draw to draw and drown the timings in instance noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tensornorms import (
    Tensor3,
    TensorD,
    gen_gaussian,
    gen_orthogonal_test,
    gen_orthogonal_test_order4,
    gen_sequence_example,
)

SEQ_NUCLEAR = 33.6749  # published nuclear norm of t_ijk = i + j + k, 4 decimals
BASE_SEED = 0  # generator seed of every rotated base tensor


@dataclass(frozen=True)
class Instance:
    name: str
    tensor: Tensor3 | TensorD
    truth_spectral: float | None = None  # known norms of orthogonal instances
    truth_nuclear: float | None = None
    published_nuclear: float | None = None  # rounded to 4 decimals

    @property
    def array(self) -> np.ndarray:
        t = self.tensor
        return t.slices if isinstance(t, Tensor3) else t.values


@dataclass(frozen=True)
class Solve:
    instance: Instance
    norm: str  # "spectral" or "nuclear"
    eps: float

    @property
    def label(self) -> str:
        return f"{self.norm}:{self.instance.name}@{self.eps:g}"


def _rotate(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply random orthogonal matrices to the last two modes of ``a``."""
    for axis in (-2, -1):
        q, r = np.linalg.qr(rng.standard_normal((a.shape[axis], a.shape[axis])))
        q = q * np.sign(np.diag(r))
        a = np.moveaxis(np.tensordot(a, q, axes=([axis], [1])), -1, axis)
    return a


def _wrap(a: np.ndarray) -> Tensor3 | TensorD:
    return Tensor3(a) if a.ndim == 3 else TensorD(a)


def _known(name, tensor, dec, rng=None) -> Instance:
    weights = [t[0] for t in dec.terms]
    a = tensor.slices if isinstance(tensor, Tensor3) else tensor.values
    if rng is not None:
        a = _rotate(a, rng)
    return Instance(name, _wrap(a), max(weights), sum(weights))


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(v) for v in rng.integers(2**31, size=count)]


def _anchor(rng: np.random.Generator) -> list[Solve]:
    """A tiny order-4 tensor solved for both norms, closing every workload.

    It is a few percent of each workload's time and makes every layer of
    the package (product grids, the order-d wrapper, the nuclear solver) run
    on every workload, so each per-layer metric is measured everywhere.
    """
    inst = _known("orth4-2x2x4x4", *gen_orthogonal_test_order4((2, 2, 4, 4), 2, BASE_SEED), rng)
    return [Solve(inst, "spectral", 1e-1), Solve(inst, "nuclear", 1e-1)]


def spectral_wide(rng: np.random.Generator) -> list[Solve]:
    """Order-3 spectral solves with l = 3..6 and large m, n."""
    s = _seeds(rng, 6)
    orth5 = _known("orth-5x50x50", *gen_orthogonal_test(5, 50, 50, 5, s[2]))
    orth3 = _known("orth-3x100x100", *gen_orthogonal_test(3, 100, 100, 3, s[4]))
    return [
        Solve(Instance("gauss-3x50x50", gen_gaussian(3, 50, 50, s[0])), "spectral", 1e-3),
        Solve(Instance("gauss-4x50x50", gen_gaussian(4, 50, 50, s[1])), "spectral", 1e-2),
        Solve(orth5, "spectral", 1e-1),
        Solve(Instance("gauss-6x50x50", gen_gaussian(6, 50, 50, s[3])), "spectral", 0.15),
        Solve(orth3, "spectral", 1e-2),
        Solve(Instance("gauss-3x40x120", gen_gaussian(3, 40, 120, s[5])), "spectral", 1e-3),
    ] + _anchor(rng)


def nuclear_small(rng: np.random.Generator) -> list[Solve]:
    """Order-3 nuclear solves on small slices, each with a spectral solve."""
    seq = Instance("seq-3x3x3", Tensor3(_rotate(gen_sequence_example().slices, rng)),
                   published_nuclear=SEQ_NUCLEAR)
    orth = _known("orth-3x10x10", *gen_orthogonal_test(3, 10, 10, 3, BASE_SEED), rng)
    gauss = Instance("gauss-3x6x6",
                     Tensor3(_rotate(gen_gaussian(3, 6, 6, BASE_SEED).slices, rng)))
    solves = []
    for inst, eps in ((seq, 3e-3), (orth, 3e-2), (gauss, 3e-2)):
        solves += [Solve(inst, "nuclear", eps), Solve(inst, "spectral", 1e-3)]
    return solves + _anchor(rng)


def order4_product(rng: np.random.Generator) -> list[Solve]:
    """Known-norm order-4 tensors on product grids."""
    (s,) = _seeds(rng, 1)
    wide = _known("orth4-3x3x20x20", *gen_orthogonal_test_order4((3, 3, 20, 20), 3, s))
    small = _known("orth4-2x3x10x10",
                   *gen_orthogonal_test_order4((2, 3, 10, 10), 3, BASE_SEED), rng)
    return [
        Solve(wide, "spectral", 2e-2),
        Solve(small, "spectral", 1e-2),
        Solve(small, "nuclear", 5e-2),
    ] + _anchor(rng)


def make(workload: str, seed: int, round_index: int) -> list[Solve]:
    """The solve list of one round of a run."""
    return WORKLOADS[workload](np.random.default_rng([seed, round_index]))


WORKLOADS = {
    "spectral-wide": spectral_wide,
    "nuclear-small": nuclear_small,
    "order4-product": order4_product,
}
