"""The package's records are immutable, and copies of them keep their fields.

Validated records are plain classes with ``__slots__`` whose ``__init__``
checks its arguments; the others are ``typing.NamedTuple``s. Neither is a
dataclass, so that no command pays for importing ``dataclasses``.
"""
import pickle

import pytest

from bayeslb.bounds import BoundReport
from bayeslb.info import (DiscreteChannel, DiscreteDistribution, DistortionSpec,
                          InfoDensityDistribution, JointPMF, NPPropertyReport,
                          PriorSpec)
from bayeslb.scenarios import ScenarioReport, ScenarioSpec
from bayeslb.sdpi import ContractionEstimate
from bayeslb.simulate import (SCHEMES, SandwichVerdict, SimulationConfig,
                              SimulationResult)

RECORDS = {
    "DiscreteDistribution": lambda: DiscreteDistribution([0.25, 0.75]),
    "DiscreteChannel": lambda: DiscreteChannel([[0.9, 0.1], [0.1, 0.9]]),
    "JointPMF": lambda: JointPMF([[0.5, 0.0], [0.0, 0.5]]),
    "PriorSpec": lambda: PriorSpec("gaussian", var=2.0),
    "DistortionSpec": lambda: DistortionSpec("l2r", r=2.0),
    "InfoDensityDistribution": lambda: InfoDensityDistribution([1.0, -1.0], [0.5, 0.5]),
    "NPPropertyReport": lambda: NPPropertyReport(0.0, 0.0, 0.0),
    "ContractionEstimate": lambda: ContractionEstimate(0.25, 0.5, "test"),
    "BoundReport": lambda: BoundReport(0.1, "test", {"rho": 0.5}),
    "ScenarioSpec": lambda: ScenarioSpec("gauss-gauss", n=10),
    "ScenarioReport": lambda: ScenarioReport("gauss-gauss", {"mi": 0.1}),
    "SimulationConfig": lambda: SimulationConfig(ScenarioSpec("xor"), 10, 3, "xor"),
    "SimulationResult": lambda: SimulationResult(0.1, 0.01, 10, 3, "xor"),
    "Scheme": lambda: SCHEMES["xor"],
    "SandwichVerdict": lambda: SandwichVerdict(True, (), (), {"lower:mi": 0.5}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == repr(RECORDS[name]())


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_a_pickle_round_trip(name):
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert repr(copy) == repr(record)


def test_scenario_report_dicts_are_fresh_per_instance():
    first, second = ScenarioReport("a"), ScenarioReport("a")
    for group in ("lower_bounds", "upper_bounds", "derived"):
        assert getattr(first, group) == {} and getattr(first, group) is not getattr(second, group)
