"""Time-to-verdict benchmark for nifcheck; see ``run.py``."""
