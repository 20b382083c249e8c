"""Analytical performance model of transformer and CNN inference on a
parameterized spatial accelerator: workload profiling, tiled latency/energy
estimation, mapping-space statistics, fusion scheduling, and an evolutionary
hardware-aware architecture search.
"""

__version__ = "1.0.0"
