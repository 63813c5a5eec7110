//! Helpers of the `linxbench` end-to-end benchmark: the HTTP client that drives
//! a real `linx serve` daemon, latency summaries, Prometheus scrape deltas,
//! `/proc` CPU times, and the seeded workload inputs. The orchestration lives
//! in `main.rs`; see `README.md` in this directory for the workloads and
//! metrics.

pub mod client;
pub mod procfs;
pub mod prom;
pub mod stats;
pub mod workload;
