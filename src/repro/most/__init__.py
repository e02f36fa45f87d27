"""The MOST experiment (paper §3).

The Multi-Site Online Simulation Test of July 30, 2003: a two-bay
single-story steel frame split into a UIUC physical column, a CU physical
column, and an NCSA numerical middle section, coupled over NTCP for 1,500
pseudo-dynamic steps.

* :class:`~repro.most.config.MOSTConfig` — all tunable constants with
  defaults calibrated to the paper's run statistics (≈12 s/step → ≈5 h);
* :func:`~repro.most.assembly.build_most` — wires the full deployment of
  Figure 9 (plus DAQ, NSDS, repository, CHEF, cameras);
* :class:`~repro.most.session.ExperimentSession` — the composable
  run builder (resume / monitoring / degradation / pipelining /
  ensembles) behind every run of §3.4: the simulation-only rehearsal,
  the dry run, the public run (premature exit at step 1493) and the
  fault-tolerant counterfactual are each a composition of it (spelt out
  in ``repro.cli`` ``most`` and ``examples/most_experiment.py``).
"""

from repro.most.config import MOSTConfig
from repro.most.assembly import MOSTDeployment, build_most
from repro.most.session import ExperimentSession, SessionResult

__all__ = [
    "MOSTConfig",
    "MOSTDeployment",
    "build_most",
    "ExperimentSession",
    "SessionResult",
]
