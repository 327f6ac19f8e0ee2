//! # smn-bench
//!
//! Experiment harness for the ICDE 2014 evaluation (§VI). Each binary in
//! `src/bin/` regenerates one table or figure of the paper:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `exp_table2` | Table II — dataset statistics |
//! | `exp_table3` | Table III — constraint violations per matcher |
//! | `exp_fig6` | Fig. 6 — sampling time vs network size |
//! | `exp_fig7` | Fig. 7 — sampling effectiveness (K-L ratio) |
//! | `exp_fig8` | Fig. 8 — probability vs correctness histogram |
//! | `exp_fig9` | Fig. 9 — uncertainty reduction vs user effort |
//! | `exp_fig10` | Fig. 10 — ordering strategies vs instantiation quality |
//! | `exp_fig11` | Fig. 11 — likelihood criterion in instantiation |
//! | `exp_sharding` | whole-network vs component-sharded probabilistic networks |
//! | `exp_persist` | durability: snapshot save/load and WAL replay costs |
//! | `exp_evolve` | incremental maintenance vs full rebuild on an evolving federation |
//! | `exp_service` | concurrent multi-worker reconciliation: fork/commit costs, worker × error × redundancy grid |
//! | `exp_serve` | request-driven serving: sustained answers/s and commit-lane latency at 10⁴–10⁶ open-loop sessions |
//! | `exp_speed` | single-node speed ceiling: hot paths vs the PR-2 baseline, batched what-if, federation scale |
//! | `exp_select` | incremental gain-cache selection: cached vs fresh-scan question cost, trace-identical by construction |
//! | `exp_dist` | multi-process shard servers: 1/2/4-server scaling on a 240-cluster federation |
//!
//! Binaries print the paper's rows/series to stdout and write
//! machine-readable JSON to `results/`. Criterion micro-benchmarks (incl.
//! the ablations listed in DESIGN.md) live under `benches/`.

pub mod dist;
pub mod evolve;
pub mod grid;
pub mod hotpaths;
pub mod persist;
pub mod report;
pub mod runner;
pub mod select;
pub mod serve;
pub mod service;
pub mod setup;
pub mod sharding;
pub mod speed;

pub use grid::EffortGrid;
pub use report::{save_json, Table};
pub use runner::{available_threads, parallel_runs, sampling_chains};
pub use setup::{matched_network, standard_sampler, MatcherKind};
