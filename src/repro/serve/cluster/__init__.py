"""Sharded serving: consistent-hash routing, shard workers, asyncio gateway.

The cluster layer scales :mod:`repro.serve` horizontally without
changing its contract: a :class:`HashRing` assigns every target item to
a ``replicas``-long preference list of shards, each shard runs the full
single-process engine (durable state, admission, breakers, caches) over
its partition behind a framed local socket, and an asyncio
:class:`ClusterGateway` fronts them with the same HTTP endpoints,
global admission, ingest fan-out, aggregated health/metrics, read
failover down the preference list, and durable hinted handoff
(:class:`HintQueue`) for holders that are down mid-ingest.
``repro serve --shards N --replicas R`` boots the whole thing via
:class:`ServingCluster`, which can also :meth:`~ServingCluster.resize`
the ring live under a gateway generation token.
"""

from repro.serve.cluster.controller import (
    ClusterConfig,
    ClusterError,
    ServingCluster,
    start_cluster,
)
from repro.serve.cluster.gateway import (
    ClusterGateway,
    ShardClient,
    ShardUnavailable,
    Topology,
)
from repro.serve.cluster.hints import HintOverflow, HintQueue
from repro.serve.cluster.proto import (
    FrameError,
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame_async,
    recv_frame,
    send_frame,
    write_frame_async,
)
from repro.serve.cluster.ring import HashRing, PartitionPlan, partition_corpus
from repro.serve.cluster.worker import (
    AppliedDeltaSeqs,
    ShardServer,
    handle_message,
    shard_child_main,
)

__all__ = [
    "AppliedDeltaSeqs",
    "ClusterConfig",
    "ClusterError",
    "ClusterGateway",
    "FrameError",
    "HashRing",
    "HintOverflow",
    "HintQueue",
    "MAX_FRAME_BYTES",
    "PartitionPlan",
    "ServingCluster",
    "ShardClient",
    "ShardServer",
    "ShardUnavailable",
    "Topology",
    "encode_frame",
    "handle_message",
    "partition_corpus",
    "read_frame_async",
    "recv_frame",
    "send_frame",
    "shard_child_main",
    "start_cluster",
    "write_frame_async",
]
