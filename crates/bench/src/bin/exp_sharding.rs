//! Whole-network vs component-sharded probabilistic networks on the
//! multi-component federation scenario.
//!
//! For each federation size, builds both partitions on the same
//! matched network, certifies that their posteriors agree (max probability
//! delta, entropy delta, determinism of the sharded fill) and reports the
//! fill / per-assertion / batch-information-gain timings side by side —
//! the numbers checked in as `BENCH_sharding.json`.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_sharding -- [label]`
//! (`SMN_BENCH_FAST=1` drops repetitions).

use smn_bench::sharding::measure;
use smn_bench::{save_json, Table};

fn main() {
    let label = std::env::args().nth(1).unwrap_or_else(|| "run".into());
    let iters = if std::env::var("SMN_BENCH_FAST").is_ok_and(|v| v == "1") { 1 } else { 5 };
    let points = measure(iters);

    let mut table = Table::new([
        "groups",
        "|C|",
        "shards",
        "largest",
        "fill mono (ms)",
        "fill sharded (ms)",
        "assert mono (ms)",
        "assert sharded (ms)",
        "gains mono (ms)",
        "gains sharded (ms)",
        "max |Δp|",
    ]);
    for p in &points {
        table.row([
            p.groups.to_string(),
            p.candidates.to_string(),
            p.components.to_string(),
            p.largest_component.to_string(),
            format!("{:.3}", p.monolithic_fill_ms),
            format!("{:.3}", p.sharded_fill_ms),
            format!("{:.3}", p.monolithic_assert_ms),
            format!("{:.3}", p.sharded_assert_ms),
            format!("{:.3}", p.monolithic_gains_ms),
            format!("{:.3}", p.sharded_gains_ms),
            format!("{:.2e}", p.max_probability_delta),
        ]);
    }
    println!("Component-sharded vs monolithic probabilistic networks (federation scenario)");
    table.print();
    for p in &points {
        assert!(p.deterministic, "sharded fill must be bit-deterministic per seed");
    }

    if let Ok(path) = save_json(&format!("sharding_{label}"), &points) {
        println!("\nwrote {}", path.display());
    }
}
