"""Parallel make (``pmake``) — the thesis's flagship workload (ch. 7).

``pmake`` builds a dependency graph, finds independent out-of-date
targets, and recreates them in parallel on hosts granted by the
selection facility [Fel79, RE87].  The reproduction models a compile
job faithfully at the file-system level: read the source and headers
through the client cache, burn compiler CPU, write the object file.
Every job is an exec of ``/bin/cc`` on (usually) another host, so the
file server's name lookups and the sequential link step bound the
speedup, exactly as the thesis reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..config import KB
from ..fs import OpenMode
from ..kernel import UserContext
from ..loadsharing import MigClient
from ..sim import Effect

__all__ = ["BuildTarget", "SourceTree", "Pmake", "PmakeResult"]


@dataclass
class BuildTarget:
    """One node in the dependency graph."""

    name: str
    inputs: List[str]
    output: str
    cpu_seconds: float
    read_bytes: int
    write_bytes: int
    kind: str = "compile"            # "compile" | "link"


#: The binary every build job execs.
COMPILER_IMAGE = "/bin/cc"


class SourceTree:
    """A synthetic program source tree and its build graph."""

    #: Where the tree lives, what an object file weighs, how many
    #: headers every compile reads, and the CPU of one ``ar`` step.
    root = "/src/prog"
    obj_bytes = 20 * KB
    shared_headers = 3
    archive_cpu = 1.5

    def __init__(
        self,
        files: int = 12,
        compile_cpu: float = 8.0,
        link_cpu: float = 4.0,
        src_bytes: int = 24 * KB,
        header_bytes: int = 16 * KB,
        libs: int = 0,
    ):
        """``libs > 0`` groups objects into that many library archives
        between the compiles and the link — the deeper dependency chains
        of real multi-directory builds (compile → ar → ld)."""
        if files < 1:
            raise ValueError("need at least one source file")
        if libs > files:
            raise ValueError("cannot have more libraries than source files")
        self.files = files
        self.compile_cpu = compile_cpu
        self.link_cpu = link_cpu
        self.src_bytes = src_bytes
        self.header_bytes = header_bytes
        self.libs = libs
        self.targets: Dict[str, BuildTarget] = {}
        #: target -> the targets it waits for.  A target is added after
        #: all of those (:meth:`_add`), so the graph is acyclic and both
        #: dicts list the targets dependencies-first.
        self._deps: Dict[str, List[str]] = {}
        self._build_graph()

    def _add(self, target: BuildTarget, deps: Sequence[str] = ()) -> None:
        assert all(dep in self._deps for dep in deps), "dependencies first"
        self.targets[target.name] = target
        self._deps[target.name] = list(deps)

    def _build_graph(self) -> None:
        headers = [
            f"{self.root}/h{i}.h" for i in range(self.shared_headers)
        ]
        objects = []
        for i in range(self.files):
            src = f"{self.root}/f{i}.c"
            obj = f"{self.root}/f{i}.o"
            target = BuildTarget(
                name=f"compile:f{i}",
                inputs=[src] + headers,
                output=obj,
                cpu_seconds=self.compile_cpu,
                read_bytes=self.src_bytes + len(headers) * self.header_bytes,
                write_bytes=self.obj_bytes,
            )
            self._add(target)
            objects.append(obj)
        if self.libs > 0:
            link_inputs, link_deps = self._build_archives(objects)
        else:
            link_inputs = objects
            link_deps = [f"compile:f{i}" for i in range(self.files)]
        link = BuildTarget(
            name="link",
            inputs=link_inputs,
            output=f"{self.root}/prog",
            cpu_seconds=self.link_cpu,
            read_bytes=self.files * self.obj_bytes,
            write_bytes=self.files * self.obj_bytes,
            kind="link",
        )
        self._add(link, link_deps)

    def _build_archives(self, objects: List[str]):
        """Group objects into library archives (the ``ar`` stage)."""
        link_inputs: List[str] = []
        link_deps: List[str] = []
        for lib_index in range(self.libs):
            members = objects[lib_index::self.libs]
            member_targets = [
                f"compile:f{i}" for i in range(lib_index, self.files, self.libs)
            ]
            archive_path = f"{self.root}/lib{lib_index}.a"
            archive = BuildTarget(
                name=f"archive:lib{lib_index}",
                inputs=members,
                output=archive_path,
                cpu_seconds=self.archive_cpu,
                read_bytes=len(members) * self.obj_bytes,
                write_bytes=len(members) * self.obj_bytes,
                kind="archive",
            )
            self._add(archive, member_targets)
            link_inputs.append(archive_path)
            link_deps.append(archive.name)
        return link_inputs, link_deps

    # ------------------------------------------------------------------
    def populate(self, cluster) -> None:
        """Create the sources/headers in the cluster's namespace."""
        for i in range(self.shared_headers):
            cluster.add_file(f"{self.root}/h{i}.h", size=self.header_bytes)
        for i in range(self.files):
            cluster.add_file(f"{self.root}/f{i}.c", size=self.src_bytes)

    def ready_after(self, done: set) -> List[str]:
        """Targets whose dependencies are all in ``done``."""
        return [
            name
            for name, deps in self._deps.items()
            if name not in done and all(dep in done for dep in deps)
        ]

    def out_of_date(self, changed_files: Sequence[str]) -> set:
        """Targets needing a rebuild after ``changed_files`` changed.

        Exactly make's rule: a target is out of date if any input (or
        any input's producer) changed — i.e. the targets reading a
        changed file plus everything downstream in the graph.
        """
        changed = set(changed_files)
        dirty = {
            name
            for name, target in self.targets.items()
            if changed & set(target.inputs)
        }
        for name, deps in self._deps.items():  # dependencies come first
            if not dirty.isdisjoint(deps):
                dirty.add(name)
        return dirty


def build_job(
    proc: UserContext, target: BuildTarget
) -> Generator[Effect, None, int]:
    """The body of one compile/link job (runs as its own process)."""
    for path in target.inputs:
        fd = yield from proc.open(path, OpenMode.READ)
        info = yield from proc.stat(path)
        yield from proc.read(fd, max(info["size"], 1))
        yield from proc.close(fd)
    yield from proc.compute(target.cpu_seconds)
    fd = yield from proc.open(target.output, OpenMode.WRITE | OpenMode.CREATE)
    yield from proc.write(fd, target.write_bytes)
    yield from proc.close(fd)
    return 0


@dataclass
class PmakeResult:
    elapsed: float
    targets_built: int
    remote_jobs: int
    local_jobs: int
    hosts_used: int
    detail: Dict[str, float] = field(default_factory=dict)


class Pmake:
    """The pmake coordinator: schedules the graph onto granted hosts."""

    def __init__(
        self,
        tree: SourceTree,
        client: Optional[MigClient] = None,
        max_jobs: int = 4,
        changed_files: Optional[Sequence[str]] = None,
    ):
        self.tree = tree
        self.client = client
        self.max_jobs = max_jobs
        #: None = full build; else only the out-of-date subgraph
        #: (incremental rebuild, as make/pmake decide from timestamps).
        self.changed_files = changed_files

    def run(self, proc: UserContext) -> Generator[Effect, None, PmakeResult]:
        """Build everything out of date; call from the coordinator's context."""
        started = proc.now
        if self.changed_files is None:
            done: set = set()
        else:
            stale = self.tree.out_of_date(self.changed_files)
            done = set(self.tree.targets) - stale
        up_to_date = len(done)
        running: Dict[int, Tuple[str, Optional[int]]] = {}  # pid -> (target, host)
        free_slots: List[Optional[int]] = [None]            # local slot
        granted: List[int] = []
        remote_jobs = 0
        local_jobs = 0
        if self.client is not None and self.max_jobs > 1:
            granted = yield from self.client.acquire_hosts(self.max_jobs - 1)
            free_slots = list(granted) + [None]
        hosts_used = set()
        while len(done) < len(self.tree.targets):
            ready = [
                name for name in self.tree.ready_after(done)
                if name not in {t for t, _h in running.values()}
            ]
            while ready and free_slots:
                slot = free_slots.pop(0)
                name = ready.pop(0)
                target = self.tree.targets[name]
                pid = yield from proc.fork(
                    _job_wrapper, target, slot, name=name,
                )
                running[pid] = (name, slot)
                if slot is None:
                    local_jobs += 1
                else:
                    remote_jobs += 1
                    hosts_used.add(slot)
            status = yield from proc.wait()
            name, slot = running.pop(status.pid)
            done.add(name)
            free_slots.append(slot)
        if self.client is not None and granted:
            yield from self.client.release_hosts(granted)
        return PmakeResult(
            elapsed=proc.now - started,
            targets_built=len(done) - up_to_date,
            remote_jobs=remote_jobs,
            local_jobs=local_jobs,
            hosts_used=len(hosts_used),
        )


def _job_wrapper(
    proc: UserContext,
    target: BuildTarget,
    slot: Optional[int],
) -> Generator[Effect, None, int]:
    """Child: exec the compiler (remotely when a host was granted)."""
    from ..migration import MigrationRefused

    if slot is not None:
        try:
            yield from proc.exec(
                build_job, target, host=slot,
                image_path=COMPILER_IMAGE, name=f"cc:{target.name}",
            )
        except MigrationRefused:
            pass
    yield from proc.exec(
        build_job, target, image_path=COMPILER_IMAGE, name=f"cc:{target.name}"
    )
