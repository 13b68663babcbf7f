"""End-to-end benchmark of the STAPL reproduction (see ../README.md).

``workloads`` defines the five workloads and their sequential references,
``tracing`` the per-layer span recorder, ``harness`` the SPMD rep loop and
the metric computation, ``cli`` the command line (``../run.py``).
"""
