//! Two-phase clocking analysis for nMOS designs.
//!
//! MIPS-generation nMOS chips ran on two non-overlapping clock phases:
//! φ1 latches drink from logic computed during φ2 and vice versa. Before
//! a timing analyzer can bound the cycle time it must reconstruct this
//! discipline from the transistor netlist:
//!
//! * [`scheme`] — the clock waveform geometry (phase widths, non-overlap
//!   gap) and phase arithmetic;
//! * [`mod@qualify`] — propagation of *clock qualification*: control signals
//!   like `write_enable ∧ φ1` behave as clocks and must be recognized as
//!   such (TV called these qualified clocks);
//! * [`latch`] — identification of dynamic latches: storage nodes sampled
//!   through clock-gated pass transistors, the phase boundaries of the
//!   timing graph;
//! * [`constraint`] — setup checks against phase ends and the minimum
//!   cycle computation of experiment T4.
//!
//! # Example
//!
//! ```
//! use tv_netlist::{NetlistBuilder, Tech};
//! use tv_flow::{analyze, RuleSet};
//! use tv_clocks::latch::find_latches;
//!
//! # fn main() -> Result<(), tv_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new(Tech::nmos4um());
//! let phi1 = b.clock("phi1", 0);
//! let d = b.input("d");
//! let qb = b.node("qb");
//! b.dynamic_latch("l", phi1, d, qb);
//! let nl = b.finish()?;
//! let flow = analyze(&nl, &RuleSet::all());
//! let latches = find_latches(&nl, &flow, &tv_clocks::qualify::qualify(&nl));
//! assert_eq!(latches.len(), 1);
//! assert_eq!(latches[0].phase, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod latch;
pub mod qualify;
pub mod scheme;

pub use constraint::ClockConstraints;
pub use latch::{find_latches, Latch};
pub use qualify::{qualify, Qualification};
pub use scheme::TwoPhaseClock;
