"""First-significant-digit statistics in arbitrary number bases.

Exact big-integer digit extraction, generated test sequences with a
certified fast logarithmic path, the generalized first-digit law, histogram
statistics with chi-square/MAD conformity, and dataset ingestion.

Importing the package loads none of its modules: each name is imported from
its own module (`benford_radix.sequences`, `.stats`, `.model`, `.ingest`),
so a command pays only for the modules it runs.
"""

__version__ = "0.1.0"
