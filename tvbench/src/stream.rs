//! Seeded command streams for the session and serve workloads.
//!
//! A stream is an endless sequence of steps drawn from the workload's
//! mix; the same seed and design give the same steps. Each step is one
//! or two *exchanges*: an optional edit followed by one request, timed
//! together as one latency sample of the exchange's class.

use crate::sut::{self, Design, Netlist, TimingReport};

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Request classes, each reported as its own latency distribution: the
/// mix is bimodal, so one latency over all of it does not repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A parametric edit, then `analyze`.
    Edit,
    /// `analyze` with no pending edit.
    Noop,
    /// `paths <a> <b>` or `flow`.
    Query,
    /// A structural edit (`adddev` or `rmdev`), then `analyze`.
    Rebuild,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Edit, Class::Noop, Class::Query, Class::Rebuild];

    pub fn name(self) -> &'static str {
        match self {
            Class::Edit => "edit",
            Class::Noop => "noop",
            Class::Query => "query",
            Class::Rebuild => "rebuild",
        }
    }

    /// Name of the span around one exchange of this class.
    pub fn span(self) -> &'static str {
        match self {
            Class::Edit => "step.edit",
            Class::Noop => "step.noop",
            Class::Query => "step.query",
            Class::Rebuild => "step.rebuild",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    Resize {
        dev: String,
        w: f64,
        l: f64,
    },
    SetCap {
        node: String,
        pf: f64,
    },
    /// An enhancement transistor in parallel with an existing one.
    AddDev {
        name: String,
        terminals: [String; 3],
    },
    RmDev {
        name: String,
    },
}

/// Geometry of every transistor a structural step adds, microns.
const ADDED_W: f64 = 4.0;
const ADDED_L: f64 = 2.0;

impl Edit {
    /// The session command.
    pub fn line(&self) -> String {
        match self {
            Edit::Resize { dev, w, l } => format!("edit resize {dev} {w} {l}"),
            Edit::SetCap { node, pf } => format!("edit setcap {node} {pf}"),
            Edit::AddDev {
                name,
                terminals: [g, s, d],
            } => format!("edit adddev {name} e {g} {s} {d} {ADDED_W} {ADDED_L}"),
            Edit::RmDev { name } => format!("edit rmdev {name}"),
        }
    }

    /// The same edit applied to a bare design.
    pub fn apply(&self, design: &mut Design) -> Result<(), String> {
        match self {
            Edit::Resize { dev, w, l } => sut::resize(design, dev, *w, *l),
            Edit::SetCap { node, pf } => sut::set_cap(design, node, *pf),
            Edit::AddDev { name, terminals } => {
                let [g, s, d] = terminals.each_ref().map(String::as_str);
                sut::add_device(design, name, [g, s, d], ADDED_W, ADDED_L)
            }
            Edit::RmDev { name } => sut::remove_device(design, name),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Analyze,
    Paths(String, String),
    Flow,
}

impl Request {
    pub fn line(&self) -> String {
        match self {
            Request::Analyze => "analyze".into(),
            Request::Paths(a, b) => format!("paths {a} {b}"),
            Request::Flow => "flow".into(),
        }
    }
}

/// An optional edit and one request, timed as one sample of `class`.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    pub class: Class,
    pub edit: Option<Edit>,
    pub request: Request,
}

impl Exchange {
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.edit
            .iter()
            .map(Edit::line)
            .chain(std::iter::once(self.request.line()))
    }
}

/// How many `paths` endpoint pairs a stream draws from.
const MAX_PAIRS: usize = 8;

/// What the streams draw from: the design's edit targets and the
/// `paths` endpoints known to be answerable.
pub struct Inputs {
    targets: sut::Targets,
    pairs: Vec<(String, String)>,
}

impl Inputs {
    /// Targets from `nl`, and up to [`MAX_PAIRS`] `paths` endpoints from
    /// the critical paths of its cold `report`, kept only where a query
    /// finds a path.
    pub fn new(nl: &Netlist, report: &TimingReport) -> Inputs {
        let pairs = sut::critical_pairs(nl, report)
            .into_iter()
            .filter(|(a, b)| sut::path_query(nl, a, b))
            .take(MAX_PAIRS)
            .collect();
        Inputs {
            targets: sut::targets(nl),
            pairs,
        }
    }

    pub fn has_pairs(&self) -> bool {
        !self.pairs.is_empty()
    }

    /// An endless step stream: 60% parametric edits (half resize, half
    /// setcap), 20% analyses with nothing pending, 10% `paths`, 5%
    /// `flow`, and 5% structural `adddev`/`rmdev` pairs.
    pub fn steps(&self, seed: u64) -> Steps<'_> {
        Steps {
            inputs: self,
            rng: Rng::new(seed),
            added: 0,
        }
    }
}

pub struct Steps<'a> {
    inputs: &'a Inputs,
    rng: Rng,
    added: u64,
}

const RESIZE_FACTORS: [f64; 5] = [0.5, 0.75, 1.25, 1.5, 2.0];
const CAPS_PF: [f64; 4] = [0.01, 0.02, 0.05, 0.1];

impl Iterator for Steps<'_> {
    type Item = Vec<Exchange>;

    fn next(&mut self) -> Option<Vec<Exchange>> {
        let t = &self.inputs.targets;
        let rng = &mut self.rng;
        let analyze = |class, edit| Exchange {
            class,
            edit: Some(edit),
            request: Request::Analyze,
        };
        let query = |request| Exchange {
            class: Class::Query,
            edit: None,
            request,
        };
        let r = rng.unit();
        let step = if r < 0.30 {
            let d = &t.devices[rng.below(t.devices.len())];
            let w = d.width * RESIZE_FACTORS[rng.below(RESIZE_FACTORS.len())];
            let edit = Edit::Resize {
                dev: d.name.clone(),
                w,
                l: d.length,
            };
            vec![analyze(Class::Edit, edit)]
        } else if r < 0.60 {
            let edit = Edit::SetCap {
                node: t.nodes[rng.below(t.nodes.len())].clone(),
                pf: CAPS_PF[rng.below(CAPS_PF.len())],
            };
            vec![analyze(Class::Edit, edit)]
        } else if r < 0.80 {
            vec![Exchange {
                class: Class::Noop,
                edit: None,
                request: Request::Analyze,
            }]
        } else if r < 0.90 && !self.inputs.pairs.is_empty() {
            let (a, b) = &self.inputs.pairs[rng.below(self.inputs.pairs.len())];
            vec![query(Request::Paths(a.clone(), b.clone()))]
        } else if r < 0.95 {
            vec![query(Request::Flow)]
        } else {
            let d = &t.devices[rng.below(t.devices.len())];
            self.added += 1;
            let name = format!("tvb{}", self.added);
            let add = Edit::AddDev {
                name: name.clone(),
                terminals: [d.gate.clone(), d.source.clone(), d.drain.clone()],
            };
            vec![
                analyze(Class::Rebuild, add),
                analyze(Class::Rebuild, Edit::RmDev { name }),
            ]
        };
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(inputs: &Inputs, seed: u64, n: usize) -> Vec<String> {
        inputs
            .steps(seed)
            .take(n)
            .flatten()
            .flat_map(|e| e.lines().collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn the_seed_alone_decides_the_command_stream() {
        let nl = sut::mips32_design();
        let report = sut::analyze(&nl);
        let inputs = Inputs::new(&nl, &report);
        assert!(!inputs.pairs.is_empty(), "mips32 has answerable paths");
        let a = lines(&inputs, 1, 500);
        assert_eq!(a, lines(&Inputs::new(&nl, &report), 1, 500));
        assert_ne!(a, lines(&inputs, 2, 500));
        // Every class and request kind turns up in a stream this long.
        for needle in [
            "edit resize",
            "edit setcap",
            "edit adddev",
            "edit rmdev",
            "paths",
            "flow",
        ] {
            assert!(a.iter().any(|l| l.starts_with(needle)), "{needle}");
        }
    }

    #[test]
    fn rng_is_uniform_enough_for_the_mix() {
        let mut rng = Rng::new(7);
        let n = 100_000;
        let edits = (0..n).filter(|_| rng.unit() < 0.6).count() as f64 / n as f64;
        assert!((edits - 0.6).abs() < 0.01, "{edits}");
        assert!((0..1000).all(|_| rng.below(3) < 3));
    }
}
