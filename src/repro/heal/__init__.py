"""Self-healing control plane: detect -> propose -> check -> execute.

The loop runs on the simulated clock against the flight recorder and counter
bag (never the fault schedule), turning chaos runs into closed-loop
resilience experiments:

* :mod:`repro.heal.incidents` -- the closed incident and action taxonomies;
* :mod:`repro.heal.scheduler` -- rate-limited, per-node-FIFO action queue;
* :mod:`repro.heal.plane`     -- the loop: incident detection, the repair
  playbook, scoped invariant checks around each action, and the executors;
* :mod:`repro.heal.experiment` -- the with/without-plane comparison behind
  ``python -m repro heal``.
"""

from repro.heal.experiment import experiment_ok, run_heal_experiment
from repro.heal.incidents import ACTION_KINDS, INCIDENT_KINDS, Action, Incident
from repro.heal.plane import ControlPlane
from repro.heal.scheduler import ActionScheduler

__all__ = [
    "ACTION_KINDS",
    "Action",
    "ActionScheduler",
    "ControlPlane",
    "INCIDENT_KINDS",
    "Incident",
    "experiment_ok",
    "run_heal_experiment",
]
