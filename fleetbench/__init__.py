"""End-to-end benchmark of the BugNet fleet: serving and record/diagnose.

``python3 fleetbench/run.py --workload st-warm --seed 1 --seconds 30
--trace 0`` runs one workload from the root of a checkout.  README.md
in this directory describes the workloads, metrics and layers.
"""
