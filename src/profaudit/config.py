"""Run configuration: one flat key-value file collecting every input path
and every analysis constant with its default, so sensitivity runs need no
code change."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

# accepted JSON types of the analysis constants, by annotation
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number")}


@dataclass
class AuditConfig:
    # input files; relative paths resolve against the config file location
    snapshot: str = ""
    professions: str = ""
    abbreviations: str | None = None
    manual_assignments: str | None = None
    match_decisions: str | None = None
    hits: str | None = None
    labor_stats: str | None = None
    labor_classifier: str | None = None
    gender_lexicon: str | None = None
    birth_years: str | None = None
    annotations: str | None = None
    gold_labels: str | None = None
    out_dir: str = "out"

    # analysis constants
    d_max: int = 2
    r_min: float = 0.8
    worker_accuracy: float = 0.7
    equality_band: float = 0.05
    birth_cutoff: int = 1960
    majority_threshold: float = 0.5
    dominated_threshold: float = 0.7
    min_judgments: int = 3
    closure_depth: int = 5
    min_image_width: int = 100

    seed: int = 1
    mc_iterations: int = 10000

    base_dir: Path = field(default_factory=Path, repr=False)

    _PATH_KEYS = ("snapshot", "professions", "abbreviations",
                  "manual_assignments", "match_decisions", "hits",
                  "labor_stats", "labor_classifier", "gender_lexicon",
                  "birth_years", "annotations", "gold_labels", "out_dir")

    @classmethod
    def from_file(cls, path) -> "AuditConfig":
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config: {path} must hold a JSON object, "
                             f"got {type(data).__name__}")
        known = {f.name for f in fields(cls)} - {"base_dir"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        for f in fields(cls):
            if f.name not in data:
                continue
            # a bool is not an int here, and an int is a valid float
            types, kind = (((str, type(None)), "a string or null")
                           if f.name in cls._PATH_KEYS else _KINDS[f.type])
            if type(data[f.name]) not in types:
                raise ValueError(f"config: {f.name!r} must be {kind}, "
                                 f"got {data[f.name]!r}")
        cfg = cls(**data)
        cfg.base_dir = path.parent.resolve()
        return cfg

    def path(self, key: str) -> Path | None:
        """Resolved path for a path-valued key; None when unset."""
        value = getattr(self, key)
        if not value:
            return None
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    def require(self, *keys: str) -> list[Path]:
        """Resolved paths that must exist before a stage starts."""
        out = []
        for key in keys:
            p = self.path(key)
            if p is None:
                raise ValueError(f"config: {key!r} is not set")
            if not p.exists():
                raise ValueError(f"config: {key!r} points to missing file {p}")
            out.append(p)
        return out

    def validate_thresholds(self) -> None:
        checks = [
            (0 <= self.r_min <= 1, "r_min in [0, 1]"),
            (self.d_max >= 0, "d_max >= 0"),
            (0 <= self.worker_accuracy <= 1, "worker_accuracy in [0, 1]"),
            (0 <= self.equality_band < 0.5, "equality_band in [0, 0.5)"),
            (0 <= self.majority_threshold <= 1, "majority_threshold in [0, 1]"),
            (0.5 <= self.dominated_threshold <= 1,
             "dominated_threshold in [0.5, 1]"),
            (self.min_judgments >= 1, "min_judgments >= 1"),
            (self.closure_depth >= 0, "closure_depth >= 0"),
            (self.min_image_width >= 0, "min_image_width >= 0"),
            (self.mc_iterations >= 1, "mc_iterations >= 1"),
            (0 <= self.seed < 2**64, "seed in [0, 2**64)"),
        ]
        for ok, rule in checks:
            if not ok:
                raise ValueError(f"config: threshold out of range ({rule})")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "base_dir":
                continue
            out[f.name] = getattr(self, f.name)
        return out
