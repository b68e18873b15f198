//! Signal-flow analysis for nMOS pass-transistor networks.
//!
//! The hard problem a transistor-level timing analyzer must solve before it
//! can compute any delay is: **which way do signals flow?** A MOS channel
//! is electrically symmetric, and 1983-era nMOS chips used pass transistors
//! everywhere — latches, multiplexers, barrel shifters, bus couplers. TV
//! (Jouppi, DAC 1983) resolved direction *statically*, from structure
//! alone, and this crate reimplements that analysis:
//!
//! 1. [`stage`] — count the netlist's **channel-connected components**
//!    ("stages"), the unit of electrical analysis;
//! 2. [`classify`] — assign every transistor a [`DeviceRole`] (pull-up,
//!    pull-down, pass, precharge, …) and every node a [`NodeClass`]
//!    (restored, storage, precharged, bus, …);
//! 3. [`direction`] — run a fixpoint of structural [`rules`] that orient
//!    each pass transistor, leaving the genuinely bidirectional (or
//!    unresolvable) ones flagged for the designer.
//!
//! # Example
//!
//! A dynamic latch: the pass transistor must be found to flow *into* the
//! storage node.
//!
//! ```
//! use tv_netlist::{NetlistBuilder, Tech};
//! use tv_flow::{analyze, Direction, RuleSet};
//!
//! # fn main() -> Result<(), tv_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new(Tech::nmos4um());
//! let phi = b.clock("phi1", 0);
//! let d = b.input("d");
//! let qb = b.output("qb");
//! b.dynamic_latch("lat", phi, d, qb);
//! let nl = b.finish()?;
//!
//! let flow = analyze(&nl, &RuleSet::all());
//! let store = nl.node_by_name("lat_mem").expect("storage node");
//! let pass = nl
//!     .devices()
//!     .find(|dr| dr.device.name() == "lat_pass")
//!     .unwrap()
//!     .id;
//! assert_eq!(flow.direction(pass), Direction::Toward(store));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod direction;
pub mod report;
pub mod rules;
pub mod stage;

pub use classify::{Census, DeviceRole, NodeClass};
pub use direction::{Direction, FlowAnalysis};
pub use report::FlowReport;
pub use rules::{Rule, RuleSet};

use tv_netlist::Netlist;

/// Runs the complete flow analysis: stage count, classification, and the
/// direction fixpoint under the given rule set.
///
/// This is the convenience entry point; the pieces are independently
/// available in the submodules for ablation studies.
pub fn analyze(netlist: &Netlist, rules: &RuleSet) -> FlowAnalysis {
    FlowAnalysis::run(netlist, rules)
}

/// Like [`analyze`], with designer direction annotations — each
/// `(device, downstream-terminal)` pair pins that device's flow before the
/// rules run. TV accepted exactly such hints for the rare structures its
/// rules could not orient.
pub fn analyze_with_seeds(
    netlist: &Netlist,
    rules: &RuleSet,
    seeds: &[(tv_netlist::DeviceId, tv_netlist::NodeId)],
) -> FlowAnalysis {
    FlowAnalysis::run_with_seeds(netlist, rules, seeds)
}
