"""The per-iteration records of the forward solve and of reconstruct.

The frozen values are those the 20x20 twin gave, as float.hex strings:
reading them from the records must not move a bit.  The forward ones date
from before the iterations became records (the residual, lambda and cost
attributes were then side lists and an after-loop rebuild).  The
reconstruction ones are those of the cold step on the forward loop's
start (the limiter region at the quadrature points, the magnetic rows
only).  The first residual of a cold start, a step from zero flux, is 1
since the stop rule measures it relative to the step's output.
"""

import dataclasses

import numpy as np
import pytest

import gsrecon
from gsrecon import inverse
from gsrecon.errors import RegularizationError
from gsrecon.forward import Iteration
from gsrecon.geometry import PlasmaDomain
from gsrecon.inverse import RegularizationConfig, reconstruct
from gsrecon.twin import perturb

FROZEN = {
    "forward": {
        "iterations": 8,
        "residuals": [
            "0x1.82cbddd8c27bep-3", "0x1.93cc6fbbb0ce7p-5",
            "0x1.61a25d362871ap-7", "0x1.576e2640e4d73p-11",
            "0x1.12d183cca2c0cp-13", "0x1.2cfead1b8251cp-17",
            "0x1.1b669761b29b5p-19", "0x1.d0142d17b18cep-21"],
        "lam_history": [
            "0x1.cfb9f06f79fb2p+18", "0x1.040a1129a9957p+19",
            "0x1.12fc482a69247p+19", "0x1.184acb2a7509dp+19",
            "0x1.18b29ca19e07dp+19", "0x1.18a577be89937p+19",
            "0x1.18a5d6b6bc8e7p+19", "0x1.18a59e8513bfep+19"],
        "costs": {},
    },
    "cold": {
        "iterations": 8,
        "residuals": [
            "0x1.0000000000000p+0", "0x1.6fc58cd66d1ccp-2",
            "0x1.5174ed1f6aa1cp-4", "0x1.760a595b6ab43p-6",
            "0x1.c530fc7dd9f7bp-11", "0x1.62aebebdfd017p-14",
            "0x1.f2de230b9d6d0p-19", "0x1.017f3201f463ap-22"],
        "lam_history": [
            "0x1.1ea589e031084p+18", "0x1.de1793d40979ap+19",
            "0x1.2a108d26682bdp+18", "0x1.3bdf73d69bc8cp+19",
            "0x1.2c446bb872b76p+19", "0x1.2ae6fedd5d965p+19",
            "0x1.29a1d847b537ep+19", "0x1.295b13106ae99p+19"],
        "costs": {"J0": "0x1.e6797d1619084p-10", "J1": "0x1.13bd0ba194c08p-7",
                  "J2": "0x1.cc0370b90e6bfp-11",
                  "Jeps": "0x1.2068f1e9036cdp-6"},
    },
    "warm": {
        "iterations": 2,
        "residuals": ["0x1.6efa16fff0d75p-9", "0x1.287e7affe7430p-11"],
        "lam_history": ["0x1.29585efdd7213p+19", "0x1.0b9e0a0f686c7p+19"],
        "costs": {"J0": "0x1.3d10544d44cadp-1", "J1": "0x1.7608ddfb4d8ddp+0",
                  "J2": "0x1.849eadc8ded87p-1",
                  "Jeps": "0x1.0f90d9b51317ap-4"},
    },
    # a record exists only for a completed iteration: the failing second
    # one lists no lambda
    "failed": {
        "iterations": 2,
        "residuals": ["0x1.0000000000000p+0"],
        "lam_history": ["0x1.1ea589e031084p+18"],
        "costs": {},
    },
}


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_frozen(res, name):
    want = FROZEN[name]
    assert res.iterations == want["iterations"]
    assert _hex(res.residuals) == want["residuals"]
    assert _hex(res.lam_history) == want["lam_history"]
    assert {k: float(v).hex() for k, v in res.costs.items()} == want["costs"]


def _fail_identify_ab_at(monkeypatch, call):
    """Make inverse.identify_ab raise a RegularizationError on its
    ``call``-th call; returns the list of the fluxes that flux_state is
    given, filled as it is called."""
    calls, seen = [0], []
    real_ab, real_state = inverse.identify_ab, inverse.flux_state

    def identify_ab(*args):
        calls[0] += 1
        if calls[0] == call:
            raise RegularizationError(f"singular at iteration {call}")
        return real_ab(*args)

    def flux_state(setup, psi, *args):
        seen.append(psi)
        return real_state(setup, psi, *args)

    monkeypatch.setattr(inverse, "identify_ab", identify_ab)
    monkeypatch.setattr(inverse, "flux_state", flux_state)
    return seen


def test_forward_records_match_frozen(reference_eq):
    eq = reference_eq
    _assert_frozen(eq, "forward")
    assert len(eq.records) == eq.iterations
    # each step records the domain it normalized its input by
    assert all(isinstance(r.domain, PlasmaDomain) for r in eq.records)
    assert eq.records[-1].lam == eq.lam and eq.records[-1].u is None


def test_reconstruct_records_match_frozen(setup, clean_measurements):
    reg = RegularizationConfig()
    cold = reconstruct(setup, clean_measurements, reg, use_internal=True)
    _assert_frozen(cold, "cold")
    warm = reconstruct(setup, perturb(clean_measurements, 0.01, seed=5), reg,
                       use_internal=True, warm_start=cold, tol=0.0,
                       max_iter=2)
    _assert_frozen(warm, "warm")
    for res in (cold, warm):
        assert len(res.records) == res.iterations
        assert res.costs == res.records[-1].costs
        assert res.costs is not res.records[-1].costs
    # the cold start normalizes by the limiter region, not by a domain; a
    # warm start by its carried domain
    assert cold.records[0].domain is None
    assert warm.records[0].domain == cold.domain
    assert all(isinstance(r.domain, PlasmaDomain) for r in cold.records[1:])
    # the returned profiles are the last record's u and c, rescaled
    end = cold.records[-1]
    u, lam = inverse.rescale_dofs(end.u, end.lam)
    np.testing.assert_array_equal(cold.profiles.a[:-1], u[:len(u) // 2])
    np.testing.assert_array_equal(cold.profiles.c, end.ne_coeffs)
    assert cold.lam == lam


def test_records_are_frozen(reference_eq):
    with pytest.raises(dataclasses.FrozenInstanceError):
        reference_eq.records[0].lam = 1.0


def test_step_failure_records_completed_iterations(setup, clean_measurements,
                                                  monkeypatch):
    # test_reconstruct_reports_step_failure's set-up: the second A/B solve
    # fails; the first iteration's record stays, the failing one counts
    one = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, max_iter=1)
    seen = _fail_identify_ab_at(monkeypatch, 2)
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False)
    _assert_frozen(res, "failed")
    assert res.error == "singular at iteration 2" and len(res.records) == 1
    # psi is the failing iteration's input, here the first one's output
    assert res.psi is seen[-1]
    np.testing.assert_array_equal(res.psi, one.psi)
    # lam and the profiles are the last record's
    assert res.lam == one.lam
    np.testing.assert_array_equal(res.profiles.a, one.profiles.a)


def test_step_failure_returns_the_mixed_input(setup, clean_measurements,
                                              monkeypatch):
    # from the third iteration on, an iteration's input is the Anderson
    # update, not the last output: a failure in the fourth returns that
    three = reconstruct(setup, clean_measurements, RegularizationConfig(),
                        use_internal=False, tol=0.0, max_iter=3)
    seen = _fail_identify_ab_at(monkeypatch, 4)
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, tol=0.0)
    assert res.error == "singular at iteration 4"
    assert res.iterations == 4 and res.residuals == three.residuals
    assert res.psi is seen[-1] and not np.array_equal(res.psi, three.psi)


def test_loaded_equilibrium_has_no_records(tmp_path, setup,
                                           clean_measurements, basis):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      tol=0.0, max_iter=2)
    gsrecon.save_equilibrium(res, tmp_path / "eq.txt")
    back = gsrecon.load_equilibrium(tmp_path / "eq.txt", setup.mesh, basis)
    assert back.iterations == 2 and back.converged is False
    assert back.records == [] and back.residuals == []
    assert back.lam_history == [] and back.costs == {}


def test_iteration_record_defaults():
    rec = Iteration(2.0)
    assert (rec.domain, rec.u, rec.ne_coeffs, rec.residual) == (None,) * 4
    assert rec.costs == {} and rec.costs is not Iteration(2.0).costs
