"""Scenario benchmark for the typeflow command line.

``run.py`` is the entry point; see ``README.md`` for the workloads, the
metrics and which layer each metric is meant to expose.
"""
