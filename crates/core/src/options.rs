//! Analysis configuration.

use tv_clocks::TwoPhaseClock;
use tv_flow::RuleSet;
use tv_rc::SlopeModel;

/// Which RC delay model converts stage resistance and capacitance into an
/// arc delay (the A1 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayModel {
    /// Distributed Elmore delay over the stage's RC tree (TV's model, the
    /// default).
    #[default]
    Elmore,
    /// Lumped: driver resistance × total tree capacitance, ignoring pass
    /// and interconnect resistance. The pre-TV model; underestimates chain
    /// far ends.
    Lumped,
    /// The certified *upper* bound (`T_D / x` at the switching fraction) —
    /// maximally conservative.
    UpperBound,
}

/// Options controlling one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Rules used by the signal-flow direction fixpoint.
    pub rules: RuleSet,
    /// The RC delay model for arcs.
    pub model: DelayModel,
    /// Whether to run per-phase case analysis (TV's approach). When
    /// `false`, all clocks are treated as simultaneously active — the
    /// naive mode the T4 ablation compares against.
    pub case_analysis: bool,
    /// The clock scheme setup checks are made against.
    pub clock: TwoPhaseClock,
    /// How many critical paths to extract per phase.
    pub top_k: usize,
    /// Waveform-slope handling ([`SlopeModel::calibrated`] by default;
    /// [`SlopeModel::disabled`] for pure step-response analysis).
    pub slope: SlopeModel,
    /// Worker threads for graph construction and levelized propagation.
    /// `1` (the default) runs fully serial; `0` means "use every
    /// available core". Results are bit-identical at any setting.
    pub jobs: usize,
    /// Overrides the cyclic-residue relaxation budget (default
    /// `64 × (arcs + nodes)`). Exhaustion returns *partial* results with
    /// the unresolved nodes listed, not an error-only exit.
    pub relax_budget: Option<usize>,
    /// Wall-clock deadline for the whole run, measured from the moment
    /// analysis starts. `None` (the default) never times out; setting it
    /// makes which nodes finish machine-dependent, so leave it off where
    /// reproducibility matters.
    pub deadline: Option<std::time::Duration>,
    /// Refuse (with [`crate::TvError::TooLarge`], via
    /// [`crate::Analyzer::try_run`]) netlists above this node count.
    pub max_nodes: Option<usize>,
    /// Refuse (with [`crate::TvError::TooLarge`], via
    /// [`crate::Analyzer::try_run`]) timing graphs above this arc count.
    pub max_arcs: Option<usize>,
}

impl AnalysisOptions {
    /// Resolves the `jobs` knob: `0` expands to the machine's available
    /// parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

impl Default for AnalysisOptions {
    /// Elmore model, full rule set, case analysis on, a roomy 100 ns
    /// symmetric clock, top-10 paths.
    fn default() -> Self {
        AnalysisOptions {
            rules: RuleSet::all(),
            model: DelayModel::Elmore,
            case_analysis: true,
            clock: TwoPhaseClock::symmetric(100.0, 2.0),
            top_k: 10,
            slope: SlopeModel::calibrated(),
            jobs: 1,
            relax_budget: None,
            deadline: None,
            max_nodes: None,
            max_arcs: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_elmore_with_case_analysis() {
        let o = AnalysisOptions::default();
        assert_eq!(o.model, DelayModel::Elmore);
        assert!(o.case_analysis);
        assert_eq!(o.top_k, 10);
        assert!(o.clock.cycle() > 0.0);
        assert_eq!(o.jobs, 1, "serial by default");
        assert!(o.relax_budget.is_none());
        assert!(o.deadline.is_none());
        assert!(o.max_nodes.is_none());
        assert!(o.max_arcs.is_none());
    }

    #[test]
    fn effective_jobs_expands_zero_to_machine_width() {
        let o = AnalysisOptions {
            jobs: 0,
            ..AnalysisOptions::default()
        };
        assert!(o.effective_jobs() >= 1);
        let o4 = AnalysisOptions {
            jobs: 4,
            ..AnalysisOptions::default()
        };
        assert_eq!(o4.effective_jobs(), 4);
    }

    #[test]
    fn delay_model_default_is_elmore() {
        assert_eq!(DelayModel::default(), DelayModel::Elmore);
    }
}
