//! **TV** — transistor-level static timing analysis for nMOS VLSI.
//!
//! This crate is the reproduction of the system of Jouppi's *"Timing
//! analysis for nMOS VLSI"* (Proc. 20th DAC, 1983): a timing verifier that
//! consumes an extracted transistor netlist — not a gate-level
//! abstraction — and reports worst-case delays, critical paths, minimum
//! two-phase cycle time, and the electrical rule violations designers of
//! that era fought (pull-up ratio errors, charge sharing, unresolvable
//! pass-transistor directions).
//!
//! The pipeline, mirroring the paper's structure:
//!
//! 1. `tv-flow` resolves signal-flow directions and classifies devices;
//! 2. `tv-clocks` recovers the two-phase discipline (qualified clocks,
//!    latches);
//! 3. [`graph`] turns each driving stage plus its downstream pass network
//!    into **timing arcs** with separate rise/fall Elmore delays
//!    (`tv-rc`);
//! 4. [`mod@propagate`] computes worst-case rise/fall arrival times per clock
//!    phase (case analysis), with genuine cyclic structures detected and
//!    reported rather than looped on;
//! 5. [`paths`] backtracks the top-K critical paths and [`hold`] runs
//!    the min-delay race-through check;
//! 6. [`checks`] runs the electrical rule checks;
//! 7. [`analyzer`] ties it together behind one call and [`report`]
//!    renders the result tables.
//!
//! For long-lived use — an editor, the `tv session` REPL — the stages
//! are also exposed as a demand-driven [`pipeline::PassManager`] over a
//! revisioned [`tv_netlist::Design`]: each pass re-runs only when the
//! design counters it declares as inputs moved, parametric edits splice
//! delays into cached graphs in place, and results stay bit-identical
//! to the one-shot [`Analyzer`].
//!
//! # Example
//!
//! ```
//! use tv_core::{Analyzer, AnalysisOptions};
//! use tv_gen::chains;
//! use tv_netlist::Tech;
//!
//! let circuit = chains::inverter_chain(Tech::nmos4um(), 4, 2);
//! let report = Analyzer::new(&circuit.netlist)
//!     .run(&AnalysisOptions::default());
//! // A 4-stage chain has a finite combinational delay at its output.
//! let delay = report.combinational.arrival(circuit.output);
//! assert!(delay.is_some());
//! assert!(delay.unwrap() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod checks;
pub mod error;
pub mod fingerprint;
pub mod graph;
pub mod hold;
pub mod macromodel;
pub mod options;
pub mod paths;
pub mod pipeline;
pub mod propagate;
pub mod report;

pub use analyzer::{
    external_sources, phase_endpoints, phase_sources, Analyzer, TimingReport, SOURCE_RESISTANCE,
};
pub use checks::{check_electrical, CheckIssue};
pub use error::TvError;
pub use fingerprint::{flow_fingerprint, report_fingerprint, Fnv};
pub use graph::{Arc, ArcDelay, ArcGraph, ArcKind, LevelSchedule, PhaseCase, TimingGraph};
pub use hold::{race_check, RaceHazard};
pub use options::{AnalysisOptions, DelayModel};
pub use paths::{PathStep, TimingPath};
pub use pipeline::{PassEvent, PassId, PassManager, PassOutcome, ReportSummary};
pub use propagate::{
    propagate, propagate_guarded, propagate_with, Arrivals, Completion, Guards, PhaseResult,
    PAR_MIN_WIDTH,
};
pub use tv_netlist::{codes, Diagnostic, Diagnostics, Severity};
