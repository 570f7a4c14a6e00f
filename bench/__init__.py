"""The repository's benchmark: four workloads, one harness.

``python3 bench/run.py --workload NAME --seed N`` is the entry point;
``bench/README.md`` says why each workload exists and what every
metric means.  Nothing here is imported by ``repro`` itself.
"""
