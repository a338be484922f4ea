"""Scan results: (parameter, value) rows, a fitted log-log exponent and the
paper bands that the scan declares for its slopes.

Reports embed the seed, the budget, and a hash of the resolved configuration
so a scan can be reproduced byte-for-byte from its own output files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .meannorms import FitResult, fit_exponent

__all__ = ["Band", "ScanRow", "ScanReport", "config_hash"]


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ScanRow:
    param: float
    value: float
    lo: float
    hi: float


@dataclass(frozen=True)
class Band:
    """A measured slope against its declared interval [lo, hi]."""

    label: str
    value: float
    lo: float
    hi: float

    @property
    def ok(self) -> bool:
        return self.lo <= self.value <= self.hi


@dataclass(frozen=True)
class ScanReport:
    name: str
    rows: tuple[ScanRow, ...]
    fit: FitResult
    config: dict
    seed: int | None = None
    extra: dict = field(default_factory=dict)
    bands: tuple[Band, ...] = ()

    @property
    def slope(self) -> float:
        return self.fit.slope

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    @classmethod
    def from_rows(cls, name, rows, config, seed=None, extra=None, bands=()):
        """Fit the rows and resolve each declared ``(label, key, lo, hi)`` band:
        ``key`` is ``"slope"`` for the fitted slope, else a key of ``extra``."""
        rows = tuple(ScanRow(*r) if not isinstance(r, ScanRow) else r for r in rows)
        fit = fit_exponent([(r.param, r.value) for r in rows])
        config = dict(config)
        if seed is not None:
            config.setdefault("seed", seed)
        extra = dict(extra or {})
        bands = tuple(
            Band(label, fit.slope if key == "slope" else extra[key], lo, hi)
            for label, key, lo, hi in bands
        )
        return cls(name, rows, fit, config, seed, extra, bands)

    def fit_summary(self) -> dict:
        return {
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "residual": self.fit.residual,
        }

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "config_hash": self.hash,
            "seed": self.seed,
            "fit": self.fit_summary(),
            "rows": [
                {"param": r.param, "value": r.value, "lo_ci": r.lo, "hi_ci": r.hi}
                for r in self.rows
            ],
            "extra": self.extra,
            "bands": [{**asdict(b), "ok": b.ok} for b in self.bands],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")

    def write_csv(self, path) -> None:
        lines = [
            f"# scan={self.name} config_hash={self.hash}",
            f"# config={_canonical_json(self.config)}",
            "param,value,lo_ci,hi_ci",
        ]
        for r in self.rows:
            lines.append(f"{r.param!r},{r.value!r},{r.lo!r},{r.hi!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
