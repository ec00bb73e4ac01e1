"""The Sprite network file system model.

Servers (:mod:`.server`) own domains of one shared namespace, routed by
prefix tables (:mod:`.prefix`).  Client kernels (:mod:`.client`) cache
blocks with delayed write-back (:mod:`.cache`), open files as streams
(:mod:`.streams`), reach user-level services through pseudo-devices
(:mod:`.pdev`), and page virtual memory through backing files
(:mod:`.paging`).  The consistency protocol and the stream-migration
protocol follow [NWO88] and [Wel90].
"""

from .cache import BlockCache, CacheBlock
from .client import FsClient
from .errors import (
    AccessError,
    BadStream,
    FileNotFound,
    FsError,
    NotPseudoDevice,
    PipeBrokenError,
)
from .paging import BackingFile
from .pdev import IncomingRequest, PdevMaster, PdevRegistry
from .pipes import PIPE_BUFFER_BYTES, PipeService
from .prefix import PrefixTable
from .protocol import OpenMode
from .server import FileServer, ServerFile
from .streams import STREAM_ID_COUNTER, Stream

__all__ = [
    "AccessError",
    "BackingFile",
    "BadStream",
    "BlockCache",
    "CacheBlock",
    "FileNotFound",
    "FileServer",
    "FsClient",
    "FsError",
    "IncomingRequest",
    "NotPseudoDevice",
    "OpenMode",
    "PIPE_BUFFER_BYTES",
    "PdevMaster",
    "PdevRegistry",
    "PipeBrokenError",
    "PipeService",
    "PrefixTable",
    "STREAM_ID_COUNTER",
    "ServerFile",
    "Stream",
]
