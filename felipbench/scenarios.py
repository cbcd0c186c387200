"""The three workloads as data, plus the construction shared by the
timed runs and the ``setup_s`` probe.

Why each workload exists, and which layer it stresses, is written up in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

NUM_NUMERICAL = 4
NUM_CATEGORICAL = 2
NUMERICAL_DOMAIN = 64
CATEGORICAL_DOMAIN = 8
SELECTIVITY = 0.4

#: users per wire frame in the stream workload
USERS_PER_FRAME = 500
#: share of stream frames that carry a mismatched pin
INJECTED_SHARE = 0.01
#: open-loop segment of the stream: frames and the fixed arrival rate
OPEN_LOOP_FRAMES = 2500
OPEN_LOOP_RATE = 2500.0  # frames per second (1.25M users/s)
#: IngestionService settings of the stream workload
MAX_PENDING = 256
BATCH_SIZE = 64
COMPACT_EVERY = 256
CHECKPOINT_EVERY = 2200


@dataclass(frozen=True)
class Scenario:
    name: str
    users: int
    epsilon: float
    workers: int
    chunk_size: Optional[int]
    #: (λ, count) of the workload's query set
    query_mix: Tuple[Tuple[int, int], ...]
    #: (λ, count) of the single calls made after each cycle, drawn from
    #: the query set
    single_mix: Tuple[Tuple[int, int], ...]
    #: independent LDP collections per run; cycle k uses collection
    #: k mod collections, and answer_mae averages over all of them
    collections: int
    #: correctness gate: answer_mae above this fails the run
    mae_gate: float
    stream: bool = False
    #: cycles a run makes at least, however short ``--seconds`` is
    min_cycles: int = 0

    @property
    def num_queries(self) -> int:
        return sum(count for _, count in self.query_mix)

    def config(self):
        from repro.core import FelipConfig
        return FelipConfig(epsilon=self.epsilon, strategy="ohg",
                           workers=self.workers, chunk_size=self.chunk_size,
                           ingest_policy="drop" if self.stream else "strict")


SCENARIOS = {
    "batch-mixed": Scenario(
        name="batch-mixed", users=1_000_000, epsilon=1.0, workers=1,
        chunk_size=None,
        query_mix=((1, 250), (2, 250), (3, 250), (4, 250)),
        single_mix=((1, 140), (2, 2), (3, 4), (4, 4)),
        collections=7, mae_gate=0.02),
    "collect-heavy": Scenario(
        name="collect-heavy", users=4_000_000, epsilon=4.0, workers=2,
        chunk_size=250_000,
        query_mix=((1, 7_500), (2, 17_500)),
        single_mix=((1, 900), (2, 100)),
        collections=6, mae_gate=0.004),
    "stream-ingest": Scenario(
        name="stream-ingest", users=3_000_000, epsilon=1.0, workers=1,
        chunk_size=None,
        query_mix=((1, 7_500), (2, 17_500)),
        single_mix=((1, 950), (2, 50)),
        collections=3, mae_gate=0.04, stream=True, min_cycles=10),
}


def build_schema():
    """The schema every workload shares: 4 x d=64 numerical, 2 x d=8
    categorical (the names ``repro.data.normal_dataset`` uses)."""
    from repro.schema import Schema
    from repro.schema.attribute import categorical, numerical
    attrs = [numerical(f"num_{i}", NUMERICAL_DOMAIN)
             for i in range(NUM_NUMERICAL)]
    attrs += [categorical(f"cat_{i}", CATEGORICAL_DOMAIN)
              for i in range(NUM_CATEGORICAL)]
    return Schema(attrs)


def new_collector(scenario: Scenario, schema, seed: int = 0):
    from repro.core import StreamingCollector
    return StreamingCollector(schema, scenario.config(), scenario.users,
                              rng=seed)


def construct(scenario: Scenario, schema, *, collector_seed: int = 0,
              checkpoint_dir: Optional[Path] = None):
    """Everything a deployment builds before the first record arrives.

    Batch: the grid plan for the expected population and the model.
    Stream: the collector (which plans its grids) and the service.
    """
    config = scenario.config()
    if not scenario.stream:
        from repro.core import Felip, plan_grids
        plan_grids(schema, config, scenario.users)
        return Felip(schema, config)
    from repro.service import IngestionService
    collector = new_collector(scenario, schema, collector_seed)
    service = IngestionService(
        collector, max_pending=MAX_PENDING, batch_size=BATCH_SIZE,
        compact_every=COMPACT_EVERY, checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=checkpoint_dir, keep_checkpoints=1)
    return collector, service
