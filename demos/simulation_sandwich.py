"""
Sandwiching a simulation between its bounds
===========================================

Every scenario pairs analytic lower bounds with an achievable scheme. The
simulator runs the scheme and the sandwich check asserts

    lower bound - slack  <=  empirical risk  <=  upper bound + slack

with slack measured in confidence-interval half-widths, so a bad bound or
a bad simulator shows up as a hard failure rather than a quiet plot.
"""

from bayeslb.scenarios import ScenarioSpec
from bayeslb.simulate import SCHEMES, SimulationConfig, sandwich_check, simulate_multi

# Gaussian location, posterior-mean estimator, 20k replications: one
# processor, the m = 1 case of the multi-processor runner.
spec = ScenarioSpec(tag="gauss-gauss", n=10)
result = simulate_multi(
    SimulationConfig(spec=spec, replications=20000, seed=5))
verdict = sandwich_check(SCHEMES["gauss-gauss"].report(spec), result)

print(f"empirical risk {result.empirical_risk:.5f} "
      f"+/- {result.ci_halfwidth:.5f}")
for name, margin in sorted(verdict.margins.items()):
    print(f"  margin {name:30s} {margin:+.5f}")
print(f"sandwich: {'pass' if verdict.passed else 'FAIL'}")

# Parity estimation with m = 2 processors and no communication. One
# processor's stream alone is fair coins whatever the parity bias is, so
# the empirical risk must stay pinned at the trivial-guess level 1/4; the
# lower bound says no scheme without bits can beat 1/(2e).
print()
spec = ScenarioSpec(tag="xor", m=2, n=16, b=0.0)
result = simulate_multi(
    SimulationConfig(spec=spec, replications=20000, seed=6, scheme="xor"))
verdict = sandwich_check(SCHEMES["xor"].report(spec), result)
print(f"parity risk with zero bits {result.empirical_risk:.5f} "
      f"(floor 1/(2e) = 0.18394)")
print(f"sandwich: {'pass' if verdict.passed else 'FAIL'}")
for note in verdict.advisories:
    print(f"  advisory: {note}")
