//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section VI) on the synthetic dataset analogs.
//!
//! The `experiments` binary is the entry point:
//!
//! ```text
//! cargo run -p ic-bench --release --bin experiments -- all
//! cargo run -p ic-bench --release --bin experiments -- fig2 --datasets email,dblp
//! cargo run -p ic-bench --release --bin experiments -- table3 --profile full
//! ```
//!
//! Each experiment prints a markdown table mirroring the corresponding
//! paper artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod runner;
pub mod workloads;
