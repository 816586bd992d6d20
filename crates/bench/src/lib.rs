//! Experiment harness for the CLUGP reproduction.
//!
//! One module per concern:
//!
//! * [`datasets`] — the synthetic analogues of the paper's Table III
//!   corpora (see DESIGN.md §4 for the substitution rationale), with an
//!   in-process cache and a global scale knob (`CLUGP_SCALE`).
//! * [`algorithms`] — the roster of partitioners under test, each paired
//!   with its best stream order exactly as the paper configures them.
//! * [`runner`] — runs one `(dataset, algorithm, k)` cell and collects
//!   quality/time/memory measurements.
//! * [`report`] — aligned-table printing and CSV/JSON export into
//!   `results/`.
//! * [`experiments`] — one entry point per paper table/figure
//!   (`table1`, `table3`, `fig3` … `fig11`).
//!
//! The `experiments` binary dispatches to these (`--quick` or
//! `CLUGP_SCALE` for reduced scale).

#![warn(missing_docs)]

pub mod algorithms;
pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runner;
