"""Botnet detection toolkit for bidirectional NetFlow captures.

Pipeline: ingest binetflow CSV captures, aggregate flows into
per-source time-window feature vectors, then train and evaluate
classifiers for botnet detection, with feature-selection studies and a
synthetic capture generator for desk-scale testing.
"""

from .flows import (FlowParseError, FlowTable, load_scenario, summarize,
                    write_flow_csv)
from .windows import (FEATURE_NAMES, Dataset, WindowConfig, build_dataset,
                      load_features, normalized_entropy, write_features)

__version__ = "0.1.0"

__all__ = [
    "FlowParseError", "FlowTable", "load_scenario", "summarize",
    "write_flow_csv", "FEATURE_NAMES", "Dataset", "WindowConfig",
    "build_dataset", "load_features", "normalized_entropy",
    "write_features", "__version__",
]
