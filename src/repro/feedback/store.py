"""The statistics store: aggregated runtime observations across runs.

Aggregation model (the policy layer)
------------------------------------
Every ingested execution bumps the store ``version`` (a logical clock —
no wall time, so replays are deterministic).  Per-node statistics merge
by exponential moving average with weight ``decay`` on the newest
observation, so drifting data shifts the learned statistics while
one-off outliers wash out; entries unseen for more than
``staleness_horizon`` ingests are treated as stale and excluded from
learned hints and overrides (they are kept in the store so a later
sighting revives their history).

What is learned
---------------
* per-signature node statistics (exact observed cardinalities for a
  logical sub-flow, the strongest override),
* per-operator-name :class:`~repro.optimizer.cardinality.Hints`
  (selectivity, CPU cost per call, distinct keys) aggregated across all
  positions the operator was observed in — these generalize to plan
  alternatives that were never executed,
* per-source row counts and scan volumes
  (:class:`~repro.core.catalog.SourceStats` overrides),
* per-plan measured runtimes — both the engine's *modeled* seconds and
  the measured *wall-clock* seconds — which let the adaptive driver
  prefer a plan it has measured to be fastest over one it merely
  estimates.

Persistence (the backend layer)
-------------------------------
All policy above is persistence-agnostic.  A store may run purely in
memory (``backend=None``, the default — behavior identical to the seed)
or attach a :class:`~.backends.StatsBackend` (:meth:`open`), in which
case **every ingest is one transaction**: incorporate foreign commits
(cheap generation probe), fold the execution, and atomically publish the
result with an optimistic generation check — a lost race reloads and
re-folds, so concurrent writers can never double-fold an EMA or tear a
file.  The ``(signature, run-id)`` ingest-dedupe map is persisted with
the state, so a whole-run ingest cannot double-count stage deltas even
across process boundaries.  :meth:`sync` pulls foreign writes on demand
and returns exactly the dirty operator-name set (the
:meth:`estimator_view` diff), which is precisely what
:meth:`~repro.optimizer.memo.Memo.invalidate` wants.

The store also round-trips through plain JSON (:meth:`save` /
:meth:`load` — now torn-write-safe via atomic replace): persist ->
reload -> re-optimize is bit-deterministic, across backends too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.catalog import Catalog, SourceStats
from ..core.errors import FeedbackError
from ..obs.tracer import NOOP_TRACER
from ..optimizer.cardinality import Hints
from .backends import (
    BackendConflict,
    CommitDelta,
    StatsBackend,
    open_backend,
    read_json_payload,
    write_json_atomic,
)
from .observation import GROUPING_KINDS, ExecutionObservation

#: Current payload format; version 1 (no run-dedupe map, no wall-clock
#: plan stats) still loads.
_FORMAT_VERSION = 2


@dataclass(slots=True)
class NodeStats:
    """Aggregated observations of one logical sub-flow (signature key)."""

    key: str
    op_name: str
    kind: str
    rows_in: float = 0.0
    rows_out: float = 0.0
    udf_calls: float = 0.0
    cpu_per_call: float = 1.0
    runs: int = 0
    last_seen: int = 0

    @property
    def selectivity(self) -> float | None:
        if self.udf_calls <= 0:
            return None
        return self.rows_out / self.udf_calls

    @property
    def distinct_keys(self) -> int | None:
        if self.kind in GROUPING_KINDS and self.udf_calls > 0:
            return max(1, round(self.udf_calls))
        return None


@dataclass(slots=True)
class SourceObservation:
    """Aggregated scan statistics of one data source."""

    name: str
    rows: float = 0.0
    scan_bytes: float = 0.0
    runs: int = 0
    last_seen: int = 0


@dataclass(slots=True)
class PlanStats:
    """Measured runtimes of one logical plan body.

    ``seconds`` is the engine's modeled time (deterministic, the basis
    of deployment decisions); ``wall_seconds`` is the measured
    wall-clock of the same executions (hardware truth, fed by
    ``StageRun.wall_seconds`` / ``ExecutionResult.wall_seconds``) —
    tracked separately because wall clocks only exist for runs this
    machine actually performed.
    """

    key: str
    seconds: float = 0.0
    runs: int = 0
    last_seen: int = 0
    wall_seconds: float = 0.0
    wall_runs: int = 0


def _ema(old: float, new: float, weight: float, first: bool) -> float:
    if first:
        return new
    return weight * new + (1.0 - weight) * old


@dataclass(slots=True)
class StatisticsStore:
    """Aggregate of runtime observations over a pluggable backend."""

    decay: float = 0.5  # EMA weight of the newest observation
    staleness_horizon: int | None = None  # ingests before an entry goes stale
    version: int = 0  # logical clock, bumped per ingested execution
    nodes: dict[str, NodeStats] = field(default_factory=dict)
    sources: dict[str, SourceObservation] = field(default_factory=dict)
    plans: dict[str, PlanStats] = field(default_factory=dict)
    #: Transactional persistence; None = in-memory only (seed behavior).
    backend: StatsBackend | None = field(
        default=None, repr=False, compare=False
    )
    # run id -> signature keys already folded in for that engine
    # execution.  A staged execution ingests each stage's delta in
    # flight and then the whole-run observation at the end; without
    # this, every stage op would be EMA-folded twice per run.  Persisted
    # by backends so the guarantee holds across processes too.
    _run_ingested: dict[str, set[str]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Backend generation this process has incorporated (0 = fresh).
    _generation: int = field(default=0, repr=False, compare=False)
    #: Wall-clock observability (repro.obs); never part of store state —
    #: excluded from repr/compare and from every persisted payload.
    tracer: object = field(default=NOOP_TRACER, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.decay <= 1.0):
            raise FeedbackError(f"decay must be in (0, 1], got {self.decay}")
        if self.staleness_horizon is not None and self.staleness_horizon < 0:
            raise FeedbackError(
                "staleness_horizon must be None or >= 0, got "
                f"{self.staleness_horizon}"
            )

    # -- ingestion ---------------------------------------------------------

    #: Run-dedupe sets retained at once; staged runs ingest their deltas
    #: immediately, so old runs' sets are dead weight after a handful of
    #: executions.
    _RUN_DEDUP_LIMIT = 64

    #: Optimistic-commit attempts before an ingest gives up.  Conflicts
    #: only repeat while other writers keep winning the race; each retry
    #: re-folds over their committed state, so progress is global even
    #: when one process loops.
    _COMMIT_RETRIES = 64

    def ingest(self, execution: ExecutionObservation) -> None:
        """Fold one execution's observations into the aggregates.

        Observations carrying a ``run_id`` are deduplicated per
        (signature, run): an operator already ingested for that engine
        execution — e.g. by an in-flight stage delta — is skipped when the
        same execution's whole-run observation arrives, so mid-query
        ingestion never double-counts.  ``partial`` observations (stage
        deltas, switched hybrid runs) update node and source statistics
        but never the per-plan measured runtimes: their ``seconds`` are
        not a whole-plan runtime.

        With a backend attached the fold is transactional: foreign
        commits are incorporated first, and the folded state is
        published atomically under an optimistic generation check — on
        conflict the fold is discarded, re-applied over the winner's
        state, and retried, so no concurrent ingest is ever lost or
        double-counted.
        """
        span = self.tracer.span(
            "feedback.ingest",
            category="feedback",
            ops=len(execution.ops),
            partial=execution.partial,
        )
        with span:
            if self.backend is None:
                self._fold(execution)
                self.tracer.count("feedback.ingests")
                return
            conflicts = 0
            for attempt in range(self._COMMIT_RETRIES):
                if self.backend.generation() != self._generation:
                    self._reload()
                delta = self._fold(execution)
                try:
                    self._generation = self.backend.commit(
                        self.to_dict(), delta, self._generation
                    )
                    span.set(commit_attempts=attempt + 1, conflicts=conflicts)
                    self.tracer.count("feedback.ingests")
                    return
                except BackendConflict:
                    # Our fold raced a foreign commit: drop it, take the
                    # winner's state, re-fold on the next pass.  Brief
                    # backoff after repeated losses to break livelock.
                    conflicts += 1
                    self.tracer.count("feedback.commit_conflicts")
                    self._reload()
                    if attempt >= 2:
                        time.sleep(0.001 * min(attempt, 20))
            span.set(commit_attempts=self._COMMIT_RETRIES, conflicts=conflicts)
        raise FeedbackError(
            f"statistics backend kept conflicting for "
            f"{self._COMMIT_RETRIES} commit attempts — writer storm or a "
            "stuck lock; retry the ingest"
        )

    def _fold(self, execution: ExecutionObservation) -> CommitDelta:
        """Apply one execution to the in-memory aggregates.

        Pure policy — no IO.  Returns the delta (touched rows plus the
        post-trim run-dedupe map) a transactional backend commit needs.
        """
        self.version += 1
        w = self.decay
        touched_nodes: set[str] = set()
        touched_sources: set[str] = set()
        touched_plans: set[str] = set()
        ingested: set[str] | None = None
        if execution.run_id is not None:
            ingested = self._run_ingested.get(execution.run_id)
            if ingested is None:
                while len(self._run_ingested) >= self._RUN_DEDUP_LIMIT:
                    self._run_ingested.pop(next(iter(self._run_ingested)))
                ingested = self._run_ingested[execution.run_id] = set()
        for obs in execution.ops:
            if ingested is not None:
                if obs.key in ingested:
                    continue
                ingested.add(obs.key)
            if obs.kind == "source":
                src = self.sources.get(obs.op_name)
                if src is None:
                    src = SourceObservation(name=obs.op_name)
                    self.sources[obs.op_name] = src
                first = src.runs == 0
                src.rows = _ema(src.rows, float(obs.rows_out), w, first)
                src.scan_bytes = _ema(src.scan_bytes, obs.disk_bytes, w, first)
                src.runs += 1
                src.last_seen = self.version
                touched_sources.add(obs.op_name)
                continue
            node = self.nodes.get(obs.key)
            if node is None:
                node = NodeStats(key=obs.key, op_name=obs.op_name, kind=obs.kind)
                self.nodes[obs.key] = node
            first = node.runs == 0
            node.rows_in = _ema(node.rows_in, float(obs.rows_in), w, first)
            node.rows_out = _ema(node.rows_out, float(obs.rows_out), w, first)
            node.udf_calls = _ema(node.udf_calls, float(obs.udf_calls), w, first)
            node.cpu_per_call = _ema(node.cpu_per_call, obs.cpu_per_call, w, first)
            node.runs += 1
            node.last_seen = self.version
            touched_nodes.add(obs.key)
        if not execution.partial:
            plan = self.plans.get(execution.plan_key)
            if plan is None:
                plan = PlanStats(key=execution.plan_key)
                self.plans[execution.plan_key] = plan
            first = plan.runs == 0
            plan.seconds = _ema(plan.seconds, execution.seconds, w, first)
            plan.runs += 1
            plan.last_seen = self.version
            if execution.wall_seconds > 0.0:
                first_wall = plan.wall_runs == 0
                plan.wall_seconds = _ema(
                    plan.wall_seconds, execution.wall_seconds, w, first_wall
                )
                plan.wall_runs += 1
            touched_plans.add(execution.plan_key)
        return CommitDelta(
            version=self.version,
            nodes={k: _node_row(self.nodes[k]) for k in touched_nodes},
            sources={n: _source_row(self.sources[n]) for n in touched_sources},
            plans={k: _plan_row(self.plans[k]) for k in touched_plans},
            run_ingested=self._run_ingested_payload(),
        )

    # -- backend synchronization -------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic counter of the persisted state this process holds.

        Backends bump it once per committed ingest (by *any* process);
        comparing two readings is a constant-cost foreign-write probe.
        Backend-less stores expose their logical clock, which bumps
        identically — one per ingest.
        """
        if self.backend is None:
            return self.version
        return self._generation

    def sync(self) -> frozenset[str]:
        """Incorporate foreign commits; return the dirty operator set.

        Probes the backend's generation and, when another process has
        committed since this store last looked, reloads the persisted
        state and returns exactly the operator names whose
        :meth:`estimator_view` entry changed — the set
        :meth:`~repro.optimizer.memo.Memo.invalidate` needs to evict the
        stale memo spine.  Cheap no-op (empty set) when nothing foreign
        happened or no backend is attached.
        """
        if self.backend is None or self.backend.generation() == self._generation:
            return frozenset()
        with self.tracer.span("feedback.sync", category="feedback") as span:
            before = self.estimator_view()
            self._reload()
            after = self.estimator_view()
            dirty = frozenset(
                name
                for name in before.keys() | after.keys()
                if before.get(name) != after.get(name)
            )
        span.set(dirty=len(dirty))
        self.tracer.count("feedback.syncs")
        return dirty

    def _reload(self) -> None:
        """Replace all in-memory state with the backend's current state."""
        payload, generation = self.backend.load()
        self._generation = generation
        if payload is None:
            self.version = 0
            self.nodes.clear()
            self.sources.clear()
            self.plans.clear()
            self._run_ingested.clear()
            return
        other = StatisticsStore.from_dict(payload)
        self.decay = other.decay
        self.staleness_horizon = other.staleness_horizon
        self.version = other.version
        self.nodes = other.nodes
        self.sources = other.sources
        self.plans = other.plans
        self._run_ingested = other._run_ingested

    def _run_ingested_payload(self) -> list[tuple[str, list[str]]]:
        """Dedupe map as ordered pairs (insertion order is eviction order)."""
        return [
            (run_id, sorted(keys))
            for run_id, keys in self._run_ingested.items()
        ]

    # -- staleness ---------------------------------------------------------

    def _fresh(self, last_seen: int) -> bool:
        if self.staleness_horizon is None:
            return True
        return (self.version - last_seen) <= self.staleness_horizon

    # -- compatibility -----------------------------------------------------

    def check_compatible(self, catalog: Catalog) -> None:
        """Fail loudly when the store was learned on different data.

        Store keys are pure logical signatures, identical across datagen
        scales — warm-starting against rescaled or regenerated sources
        would silently apply wrong cardinalities and stale measured
        runtimes.  The observed per-source row counts act as the data
        fingerprint: any source known to both the store and the catalog
        must match exactly (observations on unchanged data are exact,
        EMA or not).  Sources only one side knows are ignored, so stores
        may accumulate several workloads.
        """
        for name, observed in self.sources.items():
            if not self._fresh(observed.last_seen) or observed.runs == 0:
                continue
            if not catalog.has_source(name):
                continue
            expected = catalog.stats(name).row_count
            if round(observed.rows) != expected:
                raise FeedbackError(
                    f"statistics store observed {round(observed.rows)} rows "
                    f"for source {name!r} but the catalog reports {expected}: "
                    "the store was learned on different data (other scale or "
                    "seed) — use a fresh store path"
                )

    # -- learned views -----------------------------------------------------

    def estimator_view(self) -> dict[str, tuple]:
        """Per-operator-name fingerprint of everything an estimator reads.

        For each name this folds in the learned :class:`Hints` (all
        fields — selectivity and distinct keys shape estimates, CPU cost
        shapes costs), the fresh per-signature observations *rooted* at
        the name (the estimator pins exactly the node whose signature
        matches, and every entry above that node contains its root
        operator), and the source row-count override.  Because a node's
        estimate and cost depend only on the operators inside its
        subtree, two store states whose views agree on a name produce
        bit-identical results for every sub-plan not containing that
        name — so the *diff* of this view between feedback rounds is
        exactly the dirty set for
        :meth:`~repro.optimizer.memo.Memo.invalidate`.  Staleness
        transitions are captured too: an entry crossing the horizon
        drops out of the view and flags its name.  (:meth:`sync` applies
        the same diff across *processes*, keyed off the backend's
        generation counter.)
        """
        view: dict[str, list] = {}
        for name, hint in self.learned_hints().items():
            view.setdefault(name, []).append(("hints", hint))
        for name, stats in self.source_overrides().items():
            view.setdefault(name, []).append(("source", stats.row_count))
        for key in sorted(self.nodes):
            node = self.node_stats(key)
            if node is not None:
                view.setdefault(node.op_name, []).append(
                    ("node", key, node.rows_out, node.udf_calls)
                )
        return {name: tuple(entries) for name, entries in view.items()}

    def node_stats(self, key: str) -> NodeStats | None:
        """Fresh per-signature statistics, or None if unknown/stale."""
        node = self.nodes.get(key)
        if node is None or not self._fresh(node.last_seen):
            return None
        return node

    def plan_seconds(self, key: str) -> float | None:
        """Fresh *modeled* runtime of a plan body, or None."""
        plan = self.plans.get(key)
        if plan is None or not self._fresh(plan.last_seen):
            return None
        return plan.seconds

    def plan_wall_seconds(self, key: str) -> float | None:
        """Fresh *measured wall-clock* runtime of a plan body, or None."""
        plan = self.plans.get(key)
        if plan is None or plan.wall_runs == 0 or not self._fresh(plan.last_seen):
            return None
        return plan.wall_seconds

    def learned_hints(self) -> dict[str, Hints]:
        """Per-operator hints aggregated across every observed position.

        Selectivity is the ratio of run-weighted emitted rows to UDF
        calls (a per-call average, exactly the paper's "Average Number of
        Records Emitted per UDF Call" — measured instead of guessed);
        distinct keys average the observed group counts of grouping
        operators.  Sorted by operator name for deterministic output.
        """
        rows: dict[str, float] = {}
        calls: dict[str, float] = {}
        cpu: dict[str, float] = {}
        keys: dict[str, float] = {}
        key_runs: dict[str, float] = {}
        runs: dict[str, float] = {}
        for node in self.nodes.values():
            if not self._fresh(node.last_seen):
                continue
            name = node.op_name
            weight = float(node.runs)
            rows[name] = rows.get(name, 0.0) + weight * node.rows_out
            calls[name] = calls.get(name, 0.0) + weight * node.udf_calls
            cpu[name] = cpu.get(name, 0.0) + weight * node.cpu_per_call
            runs[name] = runs.get(name, 0.0) + weight
            dk = node.distinct_keys
            if dk is not None:
                keys[name] = keys.get(name, 0.0) + weight * dk
                key_runs[name] = key_runs.get(name, 0.0) + weight
        out: dict[str, Hints] = {}
        for name in sorted(runs):
            selectivity = rows[name] / calls[name] if calls[name] > 0 else None
            distinct = (
                max(1, round(keys[name] / key_runs[name]))
                if key_runs.get(name)
                else None
            )
            out[name] = Hints(
                selectivity=selectivity,
                cpu_per_call=cpu[name] / runs[name],
                distinct_keys=distinct,
            )
        return out

    def source_overrides(self) -> dict[str, SourceStats]:
        """Observed per-source row counts as catalog-stat overrides."""
        out: dict[str, SourceStats] = {}
        for name in sorted(self.sources):
            src = self.sources[name]
            if not self._fresh(src.last_seen) or src.runs == 0:
                continue
            out[name] = SourceStats(row_count=max(0, round(src.rows)))
        return out

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT_VERSION,
            "decay": self.decay,
            "staleness_horizon": self.staleness_horizon,
            "version": self.version,
            "nodes": {
                k: _node_row(n) for k, n in sorted(self.nodes.items())
            },
            "sources": {
                k: _source_row(s) for k, s in sorted(self.sources.items())
            },
            "plans": {
                k: _plan_row(p) for k, p in sorted(self.plans.items())
            },
            "run_ingested": self._run_ingested_payload(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StatisticsStore":
        try:
            if payload["format"] not in (1, _FORMAT_VERSION):
                raise FeedbackError(
                    f"unsupported statistics-store format {payload['format']!r}"
                )
            store = cls(
                decay=payload["decay"],
                staleness_horizon=payload["staleness_horizon"],
                version=payload["version"],
            )
            for key, n in payload["nodes"].items():
                store.nodes[key] = NodeStats(key=key, **n)
            for name, s in payload["sources"].items():
                store.sources[name] = SourceObservation(name=name, **s)
            for key, p in payload["plans"].items():
                store.plans[key] = PlanStats(key=key, **p)
            for run_id, keys in payload.get("run_ingested", []):
                store._run_ingested[run_id] = set(keys)
        except (KeyError, TypeError, ValueError) as exc:
            raise FeedbackError(
                f"malformed statistics-store payload: {exc!r}"
            ) from None
        return store

    def save(self, path: str | Path) -> None:
        """Export the state as plain JSON (atomic temp-file + rename).

        A crash at any instant leaves either the complete previous file
        or the complete new one — never a half-written store.
        """
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "StatisticsStore":
        return cls.from_dict(read_json_payload(path))

    @classmethod
    def open(
        cls,
        path: str | Path,
        backend: str | StatsBackend | None = None,
        **kwargs,
    ) -> "StatisticsStore":
        """Open a backend-attached store at ``path``.

        The backend is sniffed from the extension (``.sqlite`` /
        ``.sqlite3`` / ``.db`` → sqlite-WAL, anything else → JSON)
        unless ``backend`` names one explicitly (or passes an instance).
        Existing state is loaded (warm start, persisted policy config
        wins); a fresh path starts empty with ``kwargs`` as the policy
        config and is created immediately, so concurrent openers agree
        on the file from the start.
        """
        if isinstance(backend, str) or backend is None:
            backend = open_backend(path, backend)
        payload, generation = backend.load()
        if payload is not None:
            store = cls.from_dict(payload)
            store.backend = backend
            store._generation = generation
            return store
        store = cls(backend=backend, **kwargs)
        store._generation = generation
        try:
            store._generation = backend.commit(
                store.to_dict(), CommitDelta(version=0), generation
            )
        except BackendConflict:
            # Another process created the store first: adopt its state.
            store._reload()
        return store

    def close(self) -> None:
        """Release the backend's resources (idempotent).

        Long-lived multi-tenant processes (the planning server) open one
        backend per tenant; evicting a tenant must close its sqlite
        connection instead of waiting for garbage collection.  Backends
        without a ``close`` (JSON) and in-memory stores are no-ops.
        """
        backend = self.backend
        if backend is not None:
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()

    def migrate_to(
        self, path: str | Path, backend: str | None = None
    ) -> "StatisticsStore":
        """Copy the full current state into a (new) backend at ``path``.

        The write is one transactional commit on the destination (all
        rows as the delta, so incremental backends materialize every
        table).  Returns the freshly opened destination store — callers
        can diff ``estimator_view()`` against the source to verify the
        migration was lossless.
        """
        destination = open_backend(path, backend)
        payload = self.to_dict()
        full = CommitDelta(
            version=self.version,
            nodes=payload["nodes"],
            sources=payload["sources"],
            plans=payload["plans"],
            run_ingested=self._run_ingested_payload(),
        )
        _, generation = destination.load()
        try:
            destination.commit(payload, full, generation)
        except BackendConflict:
            raise FeedbackError(
                f"destination store {str(path)!r} changed mid-migration — "
                "stop its writers and retry"
            ) from None
        return StatisticsStore.open(path, backend=destination)


def _node_row(n: NodeStats) -> dict:
    return {
        "op_name": n.op_name,
        "kind": n.kind,
        "rows_in": n.rows_in,
        "rows_out": n.rows_out,
        "udf_calls": n.udf_calls,
        "cpu_per_call": n.cpu_per_call,
        "runs": n.runs,
        "last_seen": n.last_seen,
    }


def _source_row(s: SourceObservation) -> dict:
    return {
        "rows": s.rows,
        "scan_bytes": s.scan_bytes,
        "runs": s.runs,
        "last_seen": s.last_seen,
    }


def _plan_row(p: PlanStats) -> dict:
    return {
        "seconds": p.seconds,
        "runs": p.runs,
        "last_seen": p.last_seen,
        "wall_seconds": p.wall_seconds,
        "wall_runs": p.wall_runs,
    }
