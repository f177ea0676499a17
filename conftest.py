"""Repo-wide pytest setup: write no bytecode cache for the modules a test run
imports, so a run leaves no src/fpx/__pycache__ behind for a later run of
the benchmark's fresh-interpreter probes to load instead of compiling."""

import sys

sys.dont_write_bytecode = True
