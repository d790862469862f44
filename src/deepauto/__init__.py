"""DeepAuto-style hierarchical KPI forecasting engine.

A numpy implementation of a multi-branch LSTM forecaster for cellular
network KPIs: recent/periodic/seasonal LSTM branches fused with an
external-feature embedding, plus the surrounding data pipeline, baselines,
synthetic data generator, and a streaming prediction service.
"""

from . import (cli, dataprep, evaluation, model, neuralnet, pipeline, spatial,
               stream, synthgen)
from .errors import (ConfigError, DataError, DeepAutoError, ModelFormatError,
                     OutOfRangeError, ShapeError, TrainingDiverged)

__version__ = "0.1.0"

__all__ = [
    "cli", "dataprep", "evaluation", "model", "neuralnet", "pipeline",
    "spatial", "stream", "synthgen",
    "ConfigError", "DataError", "DeepAutoError", "ModelFormatError",
    "OutOfRangeError", "ShapeError", "TrainingDiverged",
]
