"""Hierarchical fan-out: relay trees, batched frames, shared payloads.

``repro.fanout`` restructures delivery from flat per-consumer legs into
a relay hierarchy (:mod:`repro.fanout.tree`), one ``DELIVERY_BATCH``
frame per transport send (:mod:`repro.fanout.frames`, protocol.md §7),
and a single re-stamped arrival shared by all local subscribers. It is
switched on per deployment with ``GarnetConfig(fanout_enabled=True)``;
off (the default) it is never imported and the data path stays
byte-identical to the golden digests.
"""

from repro.fanout.frames import (
    BATCH_MAGIC,
    DeliveryBatch,
    decode_batch_datagram,
    encode_batch_datagrams,
    is_batch_datagram,
)
from repro.fanout.runtime import DEFAULT_TREE, FanoutRuntime, FanoutStats
from repro.fanout.tree import (
    RELAY_INBOX_PREFIX,
    FanoutMember,
    FanoutTree,
)

__all__ = [
    "BATCH_MAGIC",
    "DEFAULT_TREE",
    "DeliveryBatch",
    "FanoutMember",
    "FanoutRuntime",
    "FanoutStats",
    "FanoutTree",
    "RELAY_INBOX_PREFIX",
    "decode_batch_datagram",
    "encode_batch_datagrams",
    "is_batch_datagram",
]
