"""Tests of the benchmark's own checks and paths.

    python3 -m pytest -q certbench

Each check must pass on the solver's answers and fail on a corrupted one;
the traced path must reproduce the untraced path's numbers.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from solves import Tracer, solve, solve_traced  # noqa: E402
from workloads import Solve, _known  # noqa: E402

from tensornorms import (  # noqa: E402
    gen_orthogonal_test,
    gen_orthogonal_test_order4,
    gen_sequence_example,
)


@pytest.fixture(scope="module")
def orth3():
    return _known("orth-3x6x6", *gen_orthogonal_test(3, 6, 6, 3, 5))


@pytest.fixture(scope="module")
def orth4():
    return _known("orth4-2x2x4x4", *gen_orthogonal_test_order4((2, 2, 4, 4), 2, 5))


@pytest.fixture(scope="module")
def solved(orth3, orth4):
    """(instance, reference, spectral result, nuclear result) per order."""
    return {inst.array.ndim: (inst, checks.reference(inst.array),
                              solve(Solve(inst, "spectral", 1e-1)),
                              solve(Solve(inst, "nuclear", 1e-1)))
            for inst in (orth3, orth4)}


@pytest.mark.parametrize("order", [3, 4])
def test_checks_pass_on_solver_answers(solved, order):
    inst, ref, spec, nuc = solved[order]
    assert checks.spectral_failures(inst.array, spec, ref, inst.truth_spectral) == []
    assert checks.nuclear_failures(inst.array, nuc, ref, inst.truth_nuclear) == []
    assert checks.pair_failures(spec, nuc, ref) == []


@pytest.mark.parametrize("order", [3, 4])
def test_shrunk_upper_fails(solved, order):
    inst, ref, spec, nuc = solved[order]
    bad = dataclasses.replace(spec, upper=spec.lower * 0.999)
    assert checks.spectral_failures(inst.array, bad, ref)
    bad = dataclasses.replace(nuc, upper=ref.nuclear_lower * 0.999)
    assert checks.nuclear_failures(inst.array, bad, ref)


@pytest.mark.parametrize("order", [3, 4])
def test_perturbed_witness_fails(solved, order):
    inst, ref, spec, _ = solved[order]
    w = list(spec.witness)
    w[0] = w[0] + 1e-3
    bad = dataclasses.replace(spec, witness=tuple(w))
    assert checks.spectral_failures(inst.array, bad, ref, inst.truth_spectral)
    w[0] = w[0] / np.linalg.norm(w[0])  # still unit, no longer attains the value
    bad = dataclasses.replace(spec, witness=tuple(w))
    assert checks.spectral_failures(inst.array, bad, ref, inst.truth_spectral)


@pytest.mark.parametrize("order", [3, 4])
def test_dropped_decomposition_term_fails(solved, order):
    inst, ref, _, nuc = solved[order]
    largest = max(range(len(nuc.terms)), key=lambda i: nuc.terms[i][0])
    bad = dataclasses.replace(nuc, terms=nuc.terms[:largest] + nuc.terms[largest + 1:])
    assert checks.nuclear_failures(inst.array, bad, ref, inst.truth_nuclear)


def test_known_and_published_values_are_checked(solved):
    inst, ref, spec, nuc = solved[3]
    off = dataclasses.replace(spec, upper=inst.truth_spectral * 0.99,
                              lower=inst.truth_spectral * 0.98)
    assert any("known spectral" in m for m in
               checks.spectral_failures(inst.array, off, ref, inst.truth_spectral))
    seq = workloads.make("nuclear-small", 0, 0)[0]
    assert seq.instance.published_nuclear == workloads.SEQ_NUCLEAR
    a = seq.instance.array
    res = solve(seq)
    seq_ref = checks.reference(a)
    assert checks.nuclear_failures(a, res, seq_ref, published=workloads.SEQ_NUCLEAR) == []
    low = dataclasses.replace(res, upper=workloads.SEQ_NUCLEAR - 1e-3)
    assert any("published" in m for m in
               checks.nuclear_failures(a, low, seq_ref, published=workloads.SEQ_NUCLEAR))


def test_pair_check_fails_on_inconsistent_norms(solved):
    _, ref, spec, nuc = solved[3]
    assert checks.pair_failures(spec, dataclasses.replace(nuc, upper=ref.frobenius * 0.9),
                                ref)


def test_power_value_and_bounds_on_known_norms(orth3, orth4):
    for inst in (orth3, orth4):
        ref = checks.reference(inst.array)
        assert ref.power == pytest.approx(inst.truth_spectral, rel=1e-9)
        assert ref.power <= ref.spectral_upper * (1 + 1e-12)
        assert ref.nuclear_lower <= inst.truth_nuclear * (1 + 1e-9)
        assert inst.truth_nuclear <= ref.nuclear_upper * (1 + 1e-9)


@pytest.mark.parametrize("norm", ["spectral", "nuclear"])
@pytest.mark.parametrize("which", ["orth3", "orth4"])
def test_traced_path_reproduces_untraced(request, norm, which):
    job = Solve(request.getfixturevalue(which), norm, 1e-1)
    plain = solve(job)
    tracer = Tracer()
    traced = solve_traced(job, tracer, 0)
    assert (traced.lower, traced.upper, traced.iterations) == \
        (plain.lower, plain.upper, plain.iterations)
    assert {name for name, *_ in tracer.spans} >= {"solve", "grids.build"}
    assert tracer.counts["grids.points"] > 0


def test_workload_inputs_follow_the_seed_and_round():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 3, 0), workloads.make(name, 3, 0)
        for other in (workloads.make(name, 4, 0), workloads.make(name, 3, 1)):
            for x, y, z in zip(a, b, other):
                assert np.array_equal(x.instance.array, y.instance.array)
                assert not np.array_equal(x.instance.array, z.instance.array)


def test_rotation_keeps_the_published_instance():
    seq = workloads.make("nuclear-small", 7, 2)[0].instance
    s = np.linalg.svd(seq.array.reshape(3, -1), compute_uv=False)
    s0 = np.linalg.svd(gen_sequence_example().slices.reshape(3, -1), compute_uv=False)
    np.testing.assert_allclose(s, s0, rtol=1e-12, atol=1e-12 * s0[0])


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "certbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", "nuclear-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
