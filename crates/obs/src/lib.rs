//! `tv_obs` — the TV observability subsystem.
//!
//! Two strictly separated planes, after the measurement discipline in
//! Jouppi's original TV (whose outputs were per-run work statistics:
//! nodes, stages, cases analyzed):
//!
//! * **Deterministic counters** ([`counters`]) — amounts of algorithmic
//!   work (arc relaxations, worklist pops, cache hits, pass outcomes,
//!   diagnostics). Bit-identical across `--jobs` counts; the work-plane
//!   subset is additionally bit-identical across warm/cold runs. Safe
//!   to put in goldens, and `verify.sh` does.
//! * **Wall-clock spans** ([`spans`]) — scoped timers forming a
//!   pass/phase tree, rendered as a text profile or a Chrome
//!   trace-event file ([`trace`]). Never part of any golden.
//!
//! Both planes are process-global and **off by default**; a disabled
//! instrumentation site costs one relaxed atomic load, which keeps the
//! engine inside its bench-smoke regression gate. The CLI enables them
//! for `--profile`, `--trace`, and `--metrics`; the session enables
//! counters for the `metrics` command.
//!
//! The crate is dependency-free (it even carries its own small JSON
//! reader, [`json`], so trace validation works offline) and sits below
//! every other TV crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod spans;
pub mod trace;

pub use counters::{add, incr, snapshot, Counter, Snapshot};
pub use spans::{span, SpanEvent, SpanGuard};
