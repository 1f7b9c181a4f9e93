//! End-to-end benchmark for MC3.
//!
//! Three workloads ([`streams::Workload`]) drive the public surfaces: the
//! in-process `Mc3Solver::solve_report` and a live `mc3 serve` on loopback.
//! [`e2e`] measures them untraced and checks every answer ([`check`]);
//! [`trace`] replays each workload layer by layer. See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

pub mod check;
pub mod e2e;
pub mod stats;
pub mod streams;
pub mod trace;
