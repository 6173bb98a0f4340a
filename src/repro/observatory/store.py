"""Queryable run store: campaign cells and benchmark artifacts, durable.

Campaign, sweep, and chaos artifacts are JSON Lines files — perfect for
crash-safe appends, useless for questions ("how did Bumblebee's
normalised IPC move between v1.1 and v1.3?").  :class:`RunStore` ingests
those files (and the machine-readable ``BENCH_*.json`` perf artifacts
the benchmark suite emits) into a single sqlite database with a schema
over design, workload, spec hash, seed, package version, and every
scalar metric/timing counter — the durable sink ROADMAP item 5 calls
for, and the natural back end for the distributed fabric and the DSE
explorer.

Ingest is *idempotent*: each row is keyed by a sha256 over the
canonical JSON form of its record, so re-ingesting the same file (or
the same records arriving twice — once on the fly via ``--db`` and once
from a later ``repro db ingest`` sweep) adds zero rows.

Two tables::

    runs    (record_hash UNIQUE, source, source_path, design, workload,
             spec_hash, spec_json, seed, requests, warmup, scale,
             version, record_json)
    metrics (run_id, kind 'metric'|'timing', name, value)

``metrics`` holds one row per scalar, so SQL can aggregate across runs
without JSON parsing; ``record_json`` keeps the full record so nothing
is lossy.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from typing import Any, Mapping

from ..designs import DesignSpec

#: Record fields that are identity/provenance, not metrics.
_NON_METRIC_FIELDS = frozenset(
    {"design", "workload", "config", "timing", "spec", "title", "slug",
     "kind", "version", "metrics"})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY,
    record_hash TEXT NOT NULL UNIQUE,
    source TEXT NOT NULL,
    source_path TEXT NOT NULL,
    design TEXT,
    workload TEXT,
    spec_hash TEXT,
    spec_json TEXT,
    seed INTEGER,
    requests INTEGER,
    warmup INTEGER,
    scale REAL,
    version TEXT,
    record_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (run_id, kind, name)
);
CREATE INDEX IF NOT EXISTS idx_runs_design ON runs(design);
CREATE INDEX IF NOT EXISTS idx_runs_workload ON runs(workload);
CREATE INDEX IF NOT EXISTS idx_runs_version ON runs(version);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics(name);
"""


def _canonical(record: Mapping[str, Any]) -> str:
    """Canonical JSON text of a record (the idempotence pre-image)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_hash(record: Mapping[str, Any]) -> str:
    """Stable sha256 identity of one record's canonical JSON form."""
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


def scalar_metrics(record: Mapping[str, Any]) -> dict[str, float]:
    """The numeric scalar metric fields of a campaign-style record.

    Identity fields (design/workload), nested blocks (config, timing,
    spec), and non-numeric values are excluded; booleans are not
    metrics.
    """
    out: dict[str, float] = {}
    for name, value in record.items():
        if name in _NON_METRIC_FIELDS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[name] = float(value)
    return out


def _version_key(version: str | None) -> tuple:
    """Sort key ordering dotted versions numerically, None first."""
    if not version:
        return (0, ())
    parts: list[tuple[int, int | str]] = []
    for token in version.split("."):
        try:
            parts.append((0, int(token)))
        except ValueError:
            parts.append((1, token))
    return (1, tuple(parts))


def load_jsonl_records(path: Path) -> list[dict]:
    """Records from a campaign/sweep/chaos file (JSONL or legacy array).

    Torn, corrupt and non-object lines are skipped exactly as campaign
    loading skips them (:func:`~repro.resilience.checkpoint.read_jsonl`);
    the file on disk is never modified.
    """
    from ..resilience.checkpoint import read_jsonl
    return read_jsonl(path)[0]


class RunStore:
    """A sqlite-backed, idempotent store of run records.

    Args:
        path: Database file (created on first use); ``":memory:"``
            builds a transient store for tests.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # ---- ingest ---------------------------------------------------------

    def add_record(self, record: Mapping[str, Any], source: str,
                   source_path: str = "") -> bool:
        """Insert one campaign-style record; False when already stored.

        The record's canonical JSON form is its identity — the same
        record ingested twice (from the file, from an on-the-fly
        ``--db`` hook, from a copy of the file) lands exactly once.
        """
        record_json = _canonical(record)
        digest = hashlib.sha256(record_json.encode("utf-8")).hexdigest()
        spec = record.get("spec")
        spec_json = None
        spec_hash = None
        if spec is not None:
            design_spec = DesignSpec.from_dict(spec)
            spec_json = design_spec.to_json()
            spec_hash = design_spec.spec_hash
        config = record.get("config") or {}
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO runs (record_hash, source, "
            "source_path, design, workload, spec_hash, spec_json, seed, "
            "requests, warmup, scale, version, record_json) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (digest, source, source_path, record.get("design"),
             record.get("workload"), spec_hash, spec_json,
             config.get("seed"), config.get("requests"),
             config.get("warmup"), config.get("scale"),
             config.get("version"), record_json))
        if cursor.rowcount == 0:
            # The ignored INSERT still opened an implicit transaction;
            # left open, it locks the database against other writers.
            self._conn.commit()
            return False
        run_id = cursor.lastrowid
        rows = [(run_id, "metric", name, value)
                for name, value in scalar_metrics(record).items()]
        rows += [(run_id, "timing", name, float(value))
                 for name, value in (record.get("timing") or {}).items()
                 if isinstance(value, (int, float))
                 and not isinstance(value, bool)]
        self._conn.executemany(
            "INSERT OR REPLACE INTO metrics (run_id, kind, name, value) "
            "VALUES (?, ?, ?, ?)", rows)
        self._conn.commit()
        return True

    def ingest_jsonl(self, path: str | Path,
                     source: str = "campaign") -> tuple[int, int]:
        """Ingest a campaign/sweep/chaos JSONL file.

        Returns:
            ``(added, seen)`` — new rows inserted vs records read.
        """
        path = Path(path)
        records = load_jsonl_records(path)
        added = sum(self.add_record(record, source=source,
                                    source_path=str(path))
                    for record in records)
        return added, len(records)

    def ingest_bench(self, path: str | Path) -> tuple[int, int]:
        """Ingest one machine-readable ``BENCH_*.json`` perf artifact.

        The file is one JSON object ``{"kind": "bench", "title": ...,
        "version": ..., "metrics": {name: value}}`` as written by the
        benchmark suite's ``emit(..., data=...)``; it lands as a single
        run row (source ``bench``) whose design column carries the
        artifact slug so trends group naturally.
        """
        path = Path(path)
        payload = json.loads(path.read_text())
        record = {
            "design": payload.get("slug") or path.stem,
            "workload": payload.get("workload"),
            "title": payload.get("title"),
            "kind": "bench",
            "config": {"version": payload.get("version"),
                       **(payload.get("config") or {})},
            **{name: value
               for name, value in (payload.get("metrics") or {}).items()
               if isinstance(value, (int, float))
               and not isinstance(value, bool)},
        }
        added = self.add_record(record, source="bench",
                                source_path=str(path))
        return (1 if added else 0), 1

    def ingest_path(self, path: str | Path,
                    source: str | None = None) -> tuple[int, int]:
        """Ingest a file or directory (recursing over known artifacts).

        ``BENCH_*.json`` files take the bench path; everything else is
        treated as record JSONL.  Directories are scanned for
        ``*.jsonl``, ``*.json``, and ``BENCH_*.json`` files.

        Raises:
            FileNotFoundError: when ``path`` does not exist.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no such artifact: {path}")
        if path.is_dir():
            added = seen = 0
            for child in sorted(path.rglob("*.json*")):
                if child.is_file():
                    add, see = self.ingest_path(child, source=source)
                    added += add
                    seen += see
            return added, seen
        if path.name.startswith("BENCH_") and path.suffix == ".json":
            return self.ingest_bench(path)
        return self.ingest_jsonl(path, source=source or "campaign")

    # ---- queries --------------------------------------------------------

    @property
    def run_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) c FROM runs").fetchone()
        return int(row["c"])

    def counts_by_source(self) -> dict[str, int]:
        """Row counts per ingest source (campaign/sweep/chaos/bench)."""
        return {row["source"]: int(row["c"]) for row in self._conn.execute(
            "SELECT source, COUNT(*) c FROM runs GROUP BY source "
            "ORDER BY source")}

    def metric_names(self, kind: str = "metric") -> list[str]:
        """Distinct stored metric (or ``timing``) names, sorted."""
        return [row["name"] for row in self._conn.execute(
            "SELECT DISTINCT name FROM metrics WHERE kind = ? "
            "ORDER BY name", (kind,))]

    def metric_sum(self, name: str, kind: str = "metric") -> float:
        """Sum of one metric over every stored run."""
        row = self._conn.execute(
            "SELECT SUM(value) s FROM metrics WHERE kind = ? AND "
            "name = ?", (kind, name)).fetchone()
        return float(row["s"] or 0.0)

    def query(self, design: str | None = None,
              workload: str | None = None,
              source: str | None = None,
              version: str | None = None,
              limit: int | None = None) -> list[dict]:
        """Stored records matching the filters, newest-ingested last.

        Each result is the full original record plus ``_source``,
        ``_source_path``, ``_version``, and ``_spec_hash`` provenance
        keys (underscored to stay clear of record fields).
        """
        clauses, params = [], []
        for column, value in (("design", design), ("workload", workload),
                              ("source", source), ("version", version)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        out = []
        for row in self._conn.execute(sql, params):
            record = json.loads(row["record_json"])
            record["_source"] = row["source"]
            record["_source_path"] = row["source_path"]
            record["_version"] = row["version"]
            record["_spec_hash"] = row["spec_hash"]
            out.append(record)
        return out

    def matrix(self, metric: str,
               source: str | None = None) -> dict[str, dict[str, float]]:
        """design -> workload -> value over stored runs (latest wins).

        Rows missing the metric are skipped, so mixed-era stores render
        partial matrices instead of crashing — the dashboard shows
        ``n/a`` for the holes.
        """
        sql = ("SELECT runs.design d, runs.workload w, metrics.value v "
               "FROM metrics JOIN runs ON runs.id = metrics.run_id "
               "WHERE metrics.kind = 'metric' AND metrics.name = ? "
               "AND runs.design IS NOT NULL "
               "AND runs.workload IS NOT NULL")
        params: list = [metric]
        if source is not None:
            sql += " AND runs.source = ?"
            params.append(source)
        sql += " ORDER BY runs.id"
        out: dict[str, dict[str, float]] = {}
        for row in self._conn.execute(sql, params):
            out.setdefault(row["d"], {})[row["w"]] = float(row["v"])
        return out

    def trend(self, metric: str, design: str | None = None,
              workload: str | None = None,
              source: str | None = None) -> list[dict]:
        """Per-version aggregate of one metric, oldest version first.

        Returns:
            Rows ``{"version", "mean", "min", "max", "runs"}`` ordered
            by dotted-version number (version-less rows first) — the
            perf trajectory across package versions that
            ``bench_artifacts.txt`` captured but nothing could diff.
        """
        sql = ("SELECT runs.version ver, AVG(metrics.value) mean, "
               "MIN(metrics.value) lo, MAX(metrics.value) hi, "
               "COUNT(*) n FROM metrics "
               "JOIN runs ON runs.id = metrics.run_id "
               "WHERE metrics.kind = 'metric' AND metrics.name = ?")
        params: list = [metric]
        for column, value in (("design", design), ("workload", workload),
                              ("source", source)):
            if value is not None:
                sql += f" AND runs.{column} = ?"
                params.append(value)
        sql += " GROUP BY runs.version"
        rows = [{"version": row["ver"], "mean": float(row["mean"]),
                 "min": float(row["lo"]), "max": float(row["hi"]),
                 "runs": int(row["n"])}
                for row in self._conn.execute(sql, params)]
        rows.sort(key=lambda row: _version_key(row["version"]))
        return rows

    def versions(self) -> list[str]:
        """Every distinct package version seen, oldest first."""
        rows = [row["version"] for row in self._conn.execute(
            "SELECT DISTINCT version FROM runs WHERE version IS NOT NULL")]
        return sorted(rows, key=_version_key)
