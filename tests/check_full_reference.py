"""Compare a run of the full profile (80 users, 24 epochs) with its
recorded rows, ``tests/full_reference.csv.gz``: every link exactly, SINR
and SE to ``test_acceptance.REFERENCE_RTOL``.  A run takes seconds, so
this is a script that the test suite does not collect.  Run it with
``PYTHONPATH=src python tests/check_full_reference.py``; it exits
non-zero on a difference.
"""

from coopsat.config import load_config
from coopsat.harness import run
from test_acceptance import FULL_REFERENCE, assert_rows_match

if __name__ == "__main__":
    assert_rows_match(run(load_config("full")), FULL_REFERENCE)
    print(f"full profile matches {FULL_REFERENCE.name}")
