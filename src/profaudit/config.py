"""Run configuration: one flat key-value file collecting every input path
and every analysis constant with its default, so sensitivity runs need no
code change."""

from __future__ import annotations

import json
from pathlib import Path

from .artifacts import open_input

# every key with its default, in order; the type of the default says which
# JSON values the key accepts
_DEFAULTS = {
    # input files; relative paths resolve against the config file location
    "snapshot": "",
    "professions": "",
    "abbreviations": None,
    "manual_assignments": None,
    "match_decisions": None,
    "hits": None,
    "labor_stats": None,
    "labor_classifier": None,
    "gender_lexicon": None,
    "birth_years": None,
    "annotations": None,
    "gold_labels": None,
    "out_dir": "out",

    # analysis constants
    "d_max": 2,
    "r_min": 0.8,
    "worker_accuracy": 0.7,
    "equality_band": 0.05,
    "birth_cutoff": 1960,
    "majority_threshold": 0.5,
    "dominated_threshold": 0.7,
    "min_judgments": 3,
    "closure_depth": 5,
    "min_image_width": 100,

    "seed": 1,
    "mc_iterations": 10000,
}

# accepted JSON types of a key, by the type of its default
_PATH_KIND = ((str, type(None)), "a string or null")
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: _PATH_KIND, type(None): _PATH_KIND}


class AuditConfig:
    # the path-valued keys, the input files and out_dir, in order: every key
    # whose default is a string or None
    _PATH_KEYS = tuple(key for key, value in _DEFAULTS.items()
                       if value is None or isinstance(value, str))

    def __init__(self, **values):
        unknown = set(values) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        self.__dict__.update(_DEFAULTS, **values)
        self.base_dir = Path()

    @classmethod
    def from_file(cls, path) -> "AuditConfig":
        """The config of a JSON file. A file that cannot be read, is not
        UTF-8 or is not JSON raises ValueError naming it."""
        path = Path(path)
        try:
            with open_input(path, "config") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"config: cannot read {path}: "
                             f"{exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config: {path} is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config: {path} must hold a JSON object, "
                             f"got {type(data).__name__}")
        cfg = cls(**data)
        for key, default in _DEFAULTS.items():
            if key not in data:
                continue
            # a bool is not an int here, and an int is a valid float
            types, kind = _KINDS[type(default)]
            if type(data[key]) not in types:
                raise ValueError(f"config: {key!r} must be {kind}, "
                                 f"got {data[key]!r}")
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
            (0.5 <= self.majority_threshold <= 1,
             "majority_threshold in [0.5, 1]"),
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
        """Every key with its value, in order; ``base_dir`` is not a key."""
        return {key: getattr(self, key) for key in _DEFAULTS}
