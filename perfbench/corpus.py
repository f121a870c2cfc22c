"""Seeded inputs: the molecule pool, each seed's raw dump, and its library.

Generating molecules costs ~0.8 ms each on a 2-core host (~30 s for one
corpus), so it never happens per seed or inside a timed region.  A
seed-independent pool of unique molecules is generated once per checkout and
cached; each seed then draws its N molecules from the pool, orders them, and
writes them as a raw dump with whitespace variants, repeats and blank lines.
The program under test only ever sees the generated files.

The pool is unique *after* the ingest filters, so ingest of any seed's dump
yields exactly its N molecules: the pack input stays duplicate-free, and a
future line-interning optimisation cannot win on tiled input.

The pool and the dumps are inputs, the same for every version of the
program.  The library the reads serve is the program's *output*, so it is
cached under the program's identity (a hash of ``src/``): an edit to the
writer, the encoder or the block size gets a library of its own.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.curation import IngestPipeline, default_filters, train_on_sample
from repro.datasets import mixed
from repro.library import pack_library

#: Bump when the generated inputs change, so stale caches are not reused.
INPUT_VERSION = 1
#: Shards of every packed library.
SHARDS = 4
#: Raw-line variants of one molecule in the dump; ingest strips them all.
VARIANTS = ("{}", "  {}", "{}\t", " {}  ", "\t{} ")


@dataclass(frozen=True)
class Scale:
    name: str
    #: Unique molecules per seed.  32768 makes 128 blocks of 256 records,
    #: 8x the server's default 16-block cache, and 4096-record writer
    #: batches, which the engine's ``auto`` routing sends to its pool.
    records: int
    #: Unique molecules in the seed-independent pool.
    pool: int
    #: Reservoir capacity for dictionary training.
    sample: int


SCALES = {
    "full": Scale("full", records=32768, pool=40960, sample=8192),
    #: 32 blocks: twice the cache, so read-cold still misses it.
    "smoke": Scale("smoke", records=8192, pool=10240, sample=1024),
}


def ingest_pipeline() -> IngestPipeline:
    """The ``zsmiles ingest`` default chain: strip, largest fragment, dedup."""
    return IngestPipeline(default_filters())


def train(records: List[str], scale: Scale, seed: int, **overrides):
    """``zsmiles train-dict``: a reservoir sample, then an engine on it."""
    engine, _ = train_on_sample(records, capacity=scale.sample, seed=seed, **overrides)
    return engine


def second_dictionary(records: List[str], scale: Scale, seed: int):
    """The dictionary the pack workload repacks to: another sample, lmax 6."""
    engine = train(records, scale, seed + 1, lmax=6)
    engine.close()
    return engine.table


def input_bytes(records: List[str]) -> int:
    """Bytes of the curated corpus as a ``.smi`` file."""
    return sum(len(record.encode("utf-8")) + 1 for record in records)


class Inputs:
    """The cache of generated inputs under one directory of the checkout.

    *program* identifies the program under test (see ``host.source_hash``);
    it keys the cached libraries.
    """

    def __init__(self, cache: Path, scale: Scale, program: str):
        self.cache = cache
        self.scale = scale
        self.program = program

    def _seed_dir(self, seed: int) -> Path:
        return self.cache / f"v{INPUT_VERSION}-{self.scale.name}" / f"seed-{seed}"

    def pool(self) -> List[str]:
        path = self.cache / f"v{INPUT_VERSION}-{self.scale.name}" / "pool.smi"
        if not path.exists():
            _write_atomic(path, "".join(m + "\n" for m in self._generate_pool()))
        return path.read_text().splitlines()

    def _generate_pool(self) -> List[str]:
        filters = default_filters()
        seen = set()
        pool: List[str] = []
        chunk = max(self.scale.pool // 4, 1)
        generation = 0
        while len(pool) < self.scale.pool:
            for raw in mixed.generate(chunk, seed=generation):
                record = raw
                for record_filter in filters:
                    record = record_filter(record)
                    if record is None:
                        break
                if record is not None and record not in seen:
                    seen.add(record)
                    pool.append(record)
            generation += 1
        return pool[: self.scale.pool]

    def dump(self, seed: int) -> Path:
        """The seed's raw dump: N molecules, 1-3 variants each, shuffled."""
        path = self._seed_dir(seed) / "dump.smi"
        if path.exists():
            return path
        rng = random.Random(seed)
        lines = []
        for molecule in rng.sample(self.pool(), self.scale.records):
            for _ in range(1 + rng.randrange(3)):
                lines.append(rng.choice(VARIANTS).format(molecule))
        rng.shuffle(lines)
        out = []
        for line in lines:
            if rng.random() < 0.05:
                out.append("")
            out.append(line)
        _write_atomic(path, "".join(line + "\n" for line in out))
        return path

    def library(self, seed: int) -> Tuple[Path, int]:
        """The library the pack workload produces for *seed*, and its input bytes.

        Built with the pack workload's own steps (ingest, train, pack at the
        CLI defaults), which are deterministic, so it is byte-identical to
        the library of the pack workload's first iteration.  Built once per
        seed and program, untimed.
        """
        seed_dir = self._seed_dir(seed)
        directory = seed_dir / f"library-{self.program}"
        meta = seed_dir / f"library-{self.program}.json"
        if not meta.exists():
            records = list(ingest_pipeline().process(self.dump(seed)))
            staging = seed_dir / f"library.tmp-{os.getpid()}"
            shutil.rmtree(staging, ignore_errors=True)
            with train(records, self.scale, seed) as engine:
                pack_library(staging, records, engine, shards=SHARDS)
            shutil.rmtree(directory, ignore_errors=True)
            os.replace(staging, directory)
            _write_atomic(meta, json.dumps({
                "program": self.program, "input_bytes": input_bytes(records),
            }))
        return directory, json.loads(meta.read_text())["input_bytes"]

    def scratch(self, name: str) -> Path:
        """A fresh working directory for one run's outputs."""
        path = self.cache / "work" / f"{name}-{os.getpid()}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def disk_bytes(directory: Path) -> int:
    """Bytes on disk of a library: every shard plus the manifest."""
    return sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    staging.write_text(text)
    os.replace(staging, path)
