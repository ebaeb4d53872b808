"""Stdlib-only benchmark of groupoid_invariants; run ``python3 bench/run.py --help``."""
