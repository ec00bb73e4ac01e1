"""Checkpoint images and the per-cluster image store.

A :class:`CheckpointImage` is the migration install payload, made
durable: the same machine-independent state bytes, per-stream
references, and zero-arg spawn factory the migration transaction ships
over the wire (:mod:`repro.migration.packaging`), written to an FS
backing file instead of a peer kernel.  Because backing files live on
file servers, an image survives the crash of the host that wrote it —
that is the entire point.

Atomicity is by *digest*, not by locking: an image is ``begin()``-ed
unsealed, its bytes are paged out, and only a completed write is
``seal()``-ed with a digest over the image's metadata.  A crash between
``begin`` and ``seal`` leaves a torn image whose digest check fails;
:meth:`CheckpointStore.latest_intact` skips it and falls back to the
previous generation.  ``repro.checkpoint`` never restores from an
unsealed or mismatched image.

The store is keyed by an integer (pid for the daemon, job id for the
Condor baseline) and bounds storage to
``ClusterParams.checkpoint_generations`` images per key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..fs import BackingFile
from ..migration.packaging import state_bytes, stream_bytes, stream_manifest
from ..sim import Effect

__all__ = [
    "CheckpointImage",
    "CheckpointStore",
    "image_payload",
    "read_image",
    "write_image",
]


@dataclass
class CheckpointImage:
    """One generation of one process's durable state."""

    key: int                    #: store key (pid, or Condor job id)
    name: str                   #: process/job name, for reports
    seq: int                    #: generation number, monotonic per key
    path: str                   #: backing-file path on the FS server
    mode: str                   #: "full" | "incremental"
    taken_at: float = 0.0       #: sim time the image was begun
    progress: float = 0.0       #: CPU seconds banked by this image
    image_bytes: int = 0        #: bytes this image's write shipped
    restore_bytes: int = 0      #: bytes a restore must read (base chain
                                #: plus this image's delta)
    vm_size: int = 0            #: address-space size at checkpoint time
    factory: Any = None         #: zero-arg spawn factory (packaging)
    #: ``(fd, path, mode)`` per open stream, reopened on restore.
    stream_refs: Tuple[Tuple[int, str, int], ...] = ()
    base_seq: int = -1          #: full image this delta chains from
    digest: str = ""            #: "" until sealed

    def fingerprint(self) -> str:
        """Digest over everything a restore depends on."""
        payload = (
            self.key, self.name, self.seq, self.path, self.mode,
            round(self.taken_at, 9), round(self.progress, 9),
            self.image_bytes, self.restore_bytes, self.vm_size,
            self.stream_refs, self.base_seq,
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def seal(self) -> "CheckpointImage":
        self.digest = self.fingerprint()
        return self

    @property
    def intact(self) -> bool:
        """Sealed and undamaged — safe to restore from."""
        return bool(self.digest) and self.digest == self.fingerprint()


class CheckpointStore:
    """Every checkpoint image in the cluster, newest last per key."""

    def __init__(self, params: Any, root: str = "/ckpt"):
        self.params = params
        self.root = root
        self.images: Dict[int, List[CheckpointImage]] = {}

    # ------------------------------------------------------------------
    def begin(self, key: int, name: str, mode: str) -> CheckpointImage:
        """Open a new (unsealed) generation for ``key``.

        The image is visible in the store immediately so a crash during
        the write leaves a detectable torn generation behind.
        """
        generations = self.images.setdefault(key, [])
        seq = generations[-1].seq + 1 if generations else 0
        image = CheckpointImage(
            key=key, name=name, seq=seq,
            path=f"{self.root}/{key}-{seq}", mode=mode,
        )
        generations.append(image)
        return image

    def latest_intact(self, key: int) -> Optional[CheckpointImage]:
        """Newest restorable image, skipping torn/unsealed generations."""
        for image in reversed(self.images.get(key, [])):
            if image.intact:
                return image
        return None

    def torn_after(self, image: CheckpointImage) -> int:
        """Generations newer than ``image`` that failed the digest —
        the torn writes a restore had to skip to reach it."""
        return sum(
            1
            for candidate in self.images.get(image.key, [])
            if candidate.seq > image.seq and not candidate.intact
        )

    def trim(self, key: int) -> List[CheckpointImage]:
        """Drop generations beyond the configured bound; returns the
        dropped images so the caller can remove their backing files."""
        generations = self.images.get(key, [])
        keep = self.params.checkpoint_generations
        if len(generations) <= keep:
            return []
        kept = generations[len(generations) - keep:]
        # Never drop a full image some kept delta still chains on —
        # reclaiming the base would make the delta unrestorable.
        needed = {im.base_seq for im in kept if im.base_seq >= 0}
        older = generations[: len(generations) - keep]
        bases = [im for im in older if im.seq in needed]
        dropped = [im for im in older if im.seq not in needed]
        self.images[key] = bases + kept
        return dropped

    def drop(self, key: int) -> None:
        """Forget every image for ``key`` (process exited cleanly)."""
        self.images.pop(key, None)


def image_payload(params: Any, pcb: Any) -> Tuple[int, Tuple[Tuple[int, str, int], ...]]:
    """Non-VM payload of a checkpoint of ``pcb``: the byte count and the
    stream references, priced exactly as migration prices the same state
    (shared packaging discipline — one module, two callers)."""
    manifest = stream_manifest(pcb)
    nbytes = state_bytes(params) + stream_bytes(params, len(manifest))
    refs = tuple((fd, stream.path, stream.mode) for fd, stream in manifest)
    return nbytes, refs


# ----------------------------------------------------------------------
# Image I/O (generators, driven inside host tasks)
# ----------------------------------------------------------------------
def write_image(
    fs: Any,
    store: CheckpointStore,
    image: CheckpointImage,
    payload_bytes: int,
) -> Generator[Effect, None, BackingFile]:
    """Write ``payload_bytes`` (+ digest trailer) to the image's backing
    file and seal it.  The digest trailer guarantees the write is never
    zero bytes, so even an empty process costs one real FS write — and a
    crash mid-write leaves the image unsealed (torn).
    """
    backing = BackingFile(fs, image.path)
    yield from backing.create()
    nbytes = payload_bytes + store.params.checkpoint_digest_bytes
    yield from backing.page_out(nbytes)
    image.image_bytes = nbytes
    image.seal()
    return backing


def read_image(
    fs: Any, image: CheckpointImage
) -> Generator[Effect, None, int]:
    """Page the image's restore bytes in from its backing file."""
    backing = BackingFile(fs, image.path)
    yield from backing.create()
    nbytes = max(image.restore_bytes, 1)
    yield from backing.page_in(nbytes)
    return nbytes
