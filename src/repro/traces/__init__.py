"""Workload substrate: synthetic Azure trace, extraction pipeline, datasets."""

from .azure import AzureTraceConfig, SyntheticAzureTrace, calibrate_zipf_exponent
from .datasets import (
    ImageBatch,
    cifar_like,
    compress_to_batch,
    hymenoptera_like,
    load_dataset,
    mnist_like,
)
from .io import (
    FileTrace,
    TraceFrame,
    export_synthetic_day,
    read_invocations_csv,
    write_invocations_csv,
)
from .workload import (
    StreamingWorkload,
    Workload,
    WorkloadChunk,
    WorkloadSpec,
    assign_architectures,
    build_workload,
    build_workload_streaming,
)

__all__ = [
    "AzureTraceConfig",
    "SyntheticAzureTrace",
    "calibrate_zipf_exponent",
    "ImageBatch",
    "cifar_like",
    "compress_to_batch",
    "hymenoptera_like",
    "load_dataset",
    "mnist_like",
    "FileTrace",
    "TraceFrame",
    "export_synthetic_day",
    "read_invocations_csv",
    "write_invocations_csv",
    "StreamingWorkload",
    "Workload",
    "WorkloadChunk",
    "WorkloadSpec",
    "assign_architectures",
    "build_workload",
    "build_workload_streaming",
]
