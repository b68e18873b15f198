//! `nmos-tv`: transistor-level static timing analysis for nMOS VLSI.
//!
//! A from-scratch reproduction of the system described in N. Jouppi,
//! *"Timing analysis for nMOS VLSI"*, Proc. 20th Design Automation
//! Conference, 1983 — the *TV* timing verifier used on the Stanford MIPS
//! processor — together with every substrate its evaluation needed: a
//! transistor netlist model, signal-flow analysis, RC delay models, a
//! two-phase clock analyzer, a transient circuit simulator (the SPICE
//! stand-in), and generators for MIPS-class benchmark circuits.
//!
//! This crate re-exports the workspace's sub-crates under one roof:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`netlist`] | `tv-netlist` | nodes, transistors, technology, `.sim` I/O |
//! | [`flow`] | `tv-flow` | stage count, classification, pass direction rules |
//! | [`rc`] | `tv-rc` | Elmore delay, bounds, pass-chain closed forms |
//! | [`clocks`] | `tv-clocks` | two-phase schemes, qualified clocks, latches |
//! | [`core`] | `tv-core` | the analyzer: arcs, arrivals, paths, checks |
//! | [`sim`] | `tv-sim` | level-1 MOS transient simulation |
//! | [`gen`] | `tv-gen` | benchmark circuit generators |
//! | [`obs`] | `tv-obs` | deterministic counters, spans, trace profiler |
//! | [`fault`] | `tv-fault` | seeded fault-injection plane for chaos testing |
//! | [`proto`] | `tv-proto` | versioned, framed wire protocol for serving |
//! | [`serve`] | `tv-serve` | sessions, journal, multi-tenant server, client, loadgen |
//!
//! # Quickstart
//!
//! ```
//! use nmos_tv::netlist::{NetlistBuilder, Tech};
//! use nmos_tv::core::{Analyzer, AnalysisOptions};
//!
//! # fn main() -> Result<(), nmos_tv::netlist::NetlistError> {
//! // Build a tiny circuit: two inverters and a pass-gated latch.
//! let mut b = NetlistBuilder::new(Tech::nmos4um());
//! let a = b.input("a");
//! let phi1 = b.clock("phi1", 0);
//! let x = b.node("x");
//! b.inverter("i1", a, x);
//! let qb = b.output("qb");
//! b.dynamic_latch("lat", phi1, x, qb);
//! let netlist = b.finish()?;
//!
//! // Analyze it.
//! let report = Analyzer::new(&netlist).run(&AnalysisOptions::default());
//! println!("{}", report.render(&netlist));
//! assert_eq!(report.latches.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod fuzz;

pub use tv_clocks as clocks;
pub use tv_core as core;
pub use tv_fault as fault;
pub use tv_flow as flow;
pub use tv_gen as gen;
pub use tv_netlist as netlist;
pub use tv_obs as obs;
pub use tv_proto as proto;
pub use tv_rc as rc;
pub use tv_serve as serve;
pub use tv_serve::{journal, session};
pub use tv_sim as sim;
