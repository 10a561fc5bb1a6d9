//! The workloads' fixed inputs and the results pinned for them.
//!
//! A workload seed picks one of [`VARIANTS`] input variants for the batch
//! workloads and drives the serve workload's job sequence over a fixed
//! catalog, so every seed's expected outputs are known in advance. The
//! tables in `pinned.rs` are regenerated with `perfbench pin` and must
//! only change when the program's results are meant to change.

pub use crate::pinned::{PAPER_MIX, SERVE_FINGERPRINTS, STREAM_ED};

/// Input variants of the batch workloads (workload seed modulo this).
pub const VARIANTS: usize = 8;

/// Dataset seed of a `paper-mix` variant.
pub fn paper_seed(variant: usize) -> u64 {
    101 + variant as u64
}

/// Value seed of a `stream-ed` variant.
pub fn stream_seed(variant: usize) -> u64 {
    0xd472 + variant as u64
}

/// Rows of one `stream-ed` run.
pub const STREAM_ROWS: usize = 250_000;
/// Plan shard of `stream-ed` (batches per shard).
pub const STREAM_SHARD: usize = 64;
/// Plan shard of `paper-mix`.
pub const PAPER_SHARD: usize = 16;

/// The serve workload's job catalog: small paper datasets at a quarter size,
/// each under [`SERVE_SEEDS`] seeds.
pub const SERVE_DATASETS: [&str; 6] = [
    "Buy",
    "Restaurant",
    "Synthea",
    "Beer",
    "iTunes-Amazon",
    "Fodors-Zagats",
];
pub const SERVE_SCALE: f64 = 0.25;
pub const SERVE_SEEDS: usize = 8;

/// The `seed` field of catalog seed `index`.
pub fn serve_seed(index: usize) -> usize {
    31 + index
}
