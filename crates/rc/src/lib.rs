//! RC delay models for nMOS timing analysis.
//!
//! TV (Jouppi, DAC 1983) turned transistor geometry into delay numbers with
//! simple RC models — the same family of models Penfield, Rubinstein and
//! Horowitz were formalizing at exactly that time. This crate implements
//! that family:
//!
//! * [`tree`] — rooted RC trees: the driving-point abstraction of a stage
//!   and the pass network hanging off it;
//! * [`elmore`] — the Elmore delay (first moment of the impulse response),
//!   the workhorse single-number estimate;
//! * [`bounds`] — *provable* lower/upper bounds on the true crossing time,
//!   in the spirit of Rubinstein–Penfield–Horowitz: the upper bound comes
//!   from Markov's inequality on the impulse response, the lower bound
//!   from the path resistance that all charge for a node must traverse;
//! * [`lumped`] — the cruder "R·C_total" model TV-era tools used first;
//! * [`moments`] — second moments and the moment-matched crossing
//!   estimate that corrects Elmore's single-pole median bias (the road
//!   to AWE);
//! * [`passchain`] — closed forms for uniform pass-transistor chains
//!   (delay quadratic in length) and optimal buffer insertion;
//! * [`slope`] — input-slope adjustment and output transition times.
//!
//! Units follow `tv-netlist`: kΩ, pF, ns.
//!
//! # Example
//!
//! ```
//! use tv_rc::tree::RcTree;
//!
//! // Driver (10 kΩ) into two nodes of 0.1 pF joined by a 5 kΩ pass device.
//! let mut t = RcTree::new(10.0);
//! let a = t.add_child(t.root(), 0.0, 0.1);
//! let b = t.add_child(a, 5.0, 0.1);
//! let d = tv_rc::elmore::elmore_delays(&t);
//! // Elmore at b: 10·(0.1+0.1) + 5·0.1 = 2.5 ns.
//! assert!((d[b.index()] - 2.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod elmore;
pub mod lumped;
pub mod moments;
pub mod passchain;
pub mod slope;
pub mod tree;

pub use bounds::DelayBounds;
pub use slope::SlopeModel;
pub use tree::{RcNodeId, RcTree};
