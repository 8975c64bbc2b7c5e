"""The one rule for an integer count, at every parameter that is one."""

import dataclasses
import sys

import numpy as np
import pytest

from instrujoule import (
    ConstantPowerProvider,
    InvalidModel,
    KernelVariant,
    Strategy,
    SyntheticModel,
    TimedWorkload,
    ZeroInstructions,
    find_instruction,
    generate_kernel,
    instruction_energy,
    measure_instruction,
)

ADD_U32 = find_instruction("add", "u32")


def _measure(n):
    return measure_instruction(
        lambda: ConstantPowerProvider(1.0), TimedWorkload(0.01), TimedWorkload(0.01), n, Strategy.MTSM,
    )


# site: (parameter name, error class, low bound, ceiling or None, a call passing the value to it)
SITES = {
    "iterations": (
        "iterations", ValueError, 1, 2**32 - 1,
        lambda v: generate_kernel(ADD_U32, KernelVariant.TOTAL, iterations=v),
    ),
    "unroll_factor": (
        "unroll_factor", ValueError, 1, None,
        lambda v: generate_kernel(ADD_U32, KernelVariant.TOTAL, unroll_factor=v),
    ),
    "instruction_energy": (
        "n_instructions", ZeroInstructions, 1, sys.float_info.max, lambda v: instruction_energy(2.0, 1.0, v),
    ),
    "measure_instruction": ("n_instructions", ZeroInstructions, 1, sys.float_info.max, _measure),
    "decay_steps": (
        "decay_steps", InvalidModel, 0, sys.float_info.max, lambda v: SyntheticModel(decay_steps=v),
    ),
    # numpy seeds from an integer of any size
    "rng_seed": ("rng_seed", InvalidModel, 0, None, lambda v: SyntheticModel(rng_seed=v)),
    "arity": ("arity", ValueError, 1, 3, lambda v: dataclasses.replace(ADD_U32, arity=v)),
}
CEILINGS = [site for site, (*_, high, _) in SITES.items() if high is not None]


def _refusal(site, value):
    name, error, *_, call = SITES[site]
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    return name, str(exc.value)


@pytest.mark.parametrize("value", [True, np.True_, "1", 2.5, 2.0, None], ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_not_an_integer_refused(site, value):
    name, message = _refusal(site, value)
    assert message == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("site", SITES)
def test_below_low_bound_refused(site):
    low = SITES[site][2]
    name, message = _refusal(site, low - 1)
    assert message == f"{name} must be >= {low}, got {low - 1}"


@pytest.mark.parametrize("site", CEILINGS)
def test_past_ceiling_refused(site):
    high = SITES[site][3]
    value = int(high) + 1  # the float maximum is an integer, so one past it is the next one up
    name, message = _refusal(site, value)
    assert message == f"{name} must be <= {high}, got {value}"


@pytest.mark.parametrize("make", [np.int64, np.uint64])
@pytest.mark.parametrize("site", SITES)
def test_numpy_integers_accepted(site, make):
    _, _, low, high, call = SITES[site]
    call(make(low))
    if high is not None and high <= np.iinfo(np.int64).max:
        call(make(high))


@pytest.mark.parametrize("field, value", [
    ("decay_steps", -(10**5000)), ("decay_steps", 10**5000), ("p_idle", -(10**5000)),
], ids=["decay_steps--10**5000", "decay_steps-10**5000", "p_idle--10**5000"])
def test_integer_too_long_to_print_keeps_its_error_class(field, value):
    # Python 3.11 on refuses to write an int of over 4300 digits as text
    with pytest.raises(InvalidModel) as exc:
        SyntheticModel(**{field: value})
    assert str(exc.value).startswith(f"{field} must be ")
