//! Analytic models, statistics, and report formatting for the
//! Banerjee–Chrysanthis reproduction.
//!
//! * [`formulas`] — the paper's closed-form results (Eqs. 1–7) plus the
//!   message-cost models of the comparison algorithms, used to validate
//!   simulated results in `EXPERIMENTS.md`.
//! * [`stats`] — Welford online statistics with Student-t 95% confidence
//!   intervals (the paper reports 95% CIs on all simulated points).
//! * [`queueing`] — a batch-service queueing model that interpolates the
//!   whole Figure 3/4 load range (the paper only analyzes the extremes).
//! * [`report`] — ASCII/CSV table rendering used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use tokq_analysis::formulas;
//!
//! // The paper's headline numbers for N = 10:
//! assert!((formulas::arbiter_messages_heavy(10) - 2.8).abs() < 1e-12);
//! assert!((formulas::arbiter_messages_light(10) - 9.9).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod formulas;
pub mod queueing;
pub mod report;
pub mod stats;

pub use report::{Cell, Table};
pub use stats::{MovingWindow, OnlineStats};
