"""Synthetic stand-ins for the 18 KEEL benchmark datasets.

The real benchmark files cannot be redistributed here, so this module
generates Gaussian-mixture datasets with exactly the published instance
count, feature count and class split of each benchmark, including
overlapping clusters and a fraction of hard (wrong-side) instances so the
imbalance/overlap regime the boosters target is actually present.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, serialize_keel

# the one seed of the stand-in suite; with a dataset's name it seeds the
# dataset's generator
SUITE_SEED = 20170915


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n_instances: int
    n_features: int
    minority_count: int


BENCHMARK_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("pima", 768, 8, 268),
    CatalogEntry("glass5", 214, 9, 9),
    CatalogEntry("yeast5", 1484, 8, 37),
    CatalogEntry("yeast6", 1484, 8, 35),
    CatalogEntry("ecoli-0-3-4_vs_5", 200, 7, 20),
    CatalogEntry("abalone19", 4174, 8, 32),
    CatalogEntry("pageblocks", 548, 10, 3),
    CatalogEntry("led7digit-0-2-4-5-6-7-8-9_vs_1", 443, 7, 37),
    CatalogEntry("glass-0-1-4-6_vs_2", 205, 9, 17),
    CatalogEntry("glass2", 214, 9, 17),
    CatalogEntry("glass6", 214, 9, 29),
    CatalogEntry("yeast-1_vs_7", 459, 7, 30),
    CatalogEntry("poker-8-9_vs_6", 1485, 10, 25),
    CatalogEntry("haberman", 306, 3, 81),
    CatalogEntry("winequality-red-8_vs_6", 656, 11, 18),
    CatalogEntry("glass0", 214, 9, 70),
    CatalogEntry("glass-0-1-5_vs_2", 172, 9, 17),
    CatalogEntry("yeast-0-2-5-7-9_vs_3-6-8", 1004, 8, 99),
)


def _mixture(rng: np.random.Generator, n: int, d: int,
             centers: np.ndarray, stds: np.ndarray) -> np.ndarray:
    assign = rng.integers(0, len(centers), size=n)
    return centers[assign] + rng.normal(size=(n, d)) * stds[assign][:, None]


def generate_dataset(name: str, m: int, d: int, n_min: int,
                     seed: int) -> Dataset:
    """Two-class Gaussian mixture: a broad multi-cluster majority with
    small minority sub-clusters anchored inside majority territory, the
    small-disjunct / class-overlap regime typical of imbalanced
    benchmarks."""
    if not 1 <= n_min <= m - n_min:
        raise ValueError("minority count must be at least 1 and at most m/2")
    rng = np.random.default_rng(seed)
    n_maj = m - n_min

    scale = np.sqrt(d) / 7.0  # keeps cluster overlap comparable across d
    k_maj = int(rng.integers(2, 5))
    k_min = int(rng.integers(2, 6)) if n_min >= 10 else 1
    maj_centers = rng.uniform(0, 1, size=(k_maj, d))
    # minority disjuncts sit near majority clusters so classes overlap
    anchor = maj_centers[rng.integers(0, k_maj, size=k_min)]
    min_centers = anchor + rng.normal(size=(k_min, d)) * scale \
        * rng.uniform(0.8, 1.8, size=(k_min, 1))
    maj_stds = rng.uniform(0.8, 1.6, size=k_maj) * scale
    min_stds = rng.uniform(0.25, 0.6, size=k_min) * scale

    X_min = _mixture(rng, n_min, d, min_centers, min_stds)
    # a borderline-majority halo around each minority disjunct: the
    # instances random undersampling is most likely to under-represent
    n_halo = int(round(0.2 * n_maj))
    halo = rng.integers(0, k_min, size=n_halo)
    X_halo = min_centers[halo] + rng.normal(size=(n_halo, d)) \
        * (min_stds[halo][:, None] * rng.uniform(1.5, 2.5))
    X_maj = np.vstack([
        X_halo,
        _mixture(rng, n_maj - n_halo, d, maj_centers, maj_stds),
    ])
    X = np.vstack([X_min, X_maj])
    y = np.r_[np.ones(n_min, dtype=np.int64), -np.ones(n_maj, dtype=np.int64)]
    # arbitrary per-column affine ranges, as raw files would have
    col_scale = rng.uniform(0.5, 50.0, size=d)
    col_offset = rng.uniform(-10.0, 10.0, size=d)
    X = X * col_scale + col_offset

    perm = rng.permutation(m)
    return Dataset(
        features=X[perm],
        labels=y[perm],
        feature_names=tuple(f"f{j}" for j in range(d)),
        name=name,
    )


def generate_catalog_dataset(entry: CatalogEntry) -> Dataset:
    """Deterministic stand-in for one catalog row."""
    rng_seed = np.random.SeedSequence([SUITE_SEED,
                                       zlib.crc32(entry.name.encode())])
    return generate_dataset(entry.name, entry.n_instances, entry.n_features,
                            entry.minority_count,
                            seed=rng_seed.generate_state(1)[0])


def write_benchmark_suite(out_dir) -> list[Path]:
    """Write all 18 stand-in datasets as KEEL .dat files; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in BENCHMARK_CATALOG:
        ds = generate_catalog_dataset(entry)
        path = out_dir / f"{entry.name}.dat"
        path.write_text(serialize_keel(ds))
        paths.append(path)
    return paths
