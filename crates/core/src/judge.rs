//! The slice's judge: a diagnosis over slices must be the diagnosis over
//! the whole logs.
//!
//! [`DiffProv::diagnose`] replays only the slices its trees depend on
//! ([`dp_replay::Execution::replay_slice`]). This module runs the same
//! diagnosis once more over whole-log replays — its one use, as the
//! oracle — and compares: the change set, the rounds, the failure,
//! `verified`, both seeds and both tree sizes, and both trees rendered
//! with each stamp replaced by its rank in the tree (a slice's clock
//! counts fewer events, so stamps are re-ranked, never reordered).

use dp_ndlog::TupleChange;
use dp_replay::Execution;
use dp_types::{NodeId, Result, Tuple};

use crate::align::{DiffProv, QueryEvent};
use crate::report::Report;

/// What a judged diagnosis found: the sliced report, and every field in
/// which the whole-log diagnosis disagreed with it (empty when none did).
#[derive(Debug)]
pub struct Judged {
    /// The sliced diagnosis, as [`DiffProv::diagnose`] returns it.
    pub report: Report,
    /// `field: sliced … whole …` for each disagreement.
    pub disagreements: Vec<String>,
}

impl DiffProv {
    /// Runs the diagnosis over slices and over the whole logs and compares
    /// them (module docs).
    pub fn judge(
        &self,
        good: &Execution,
        good_event: &QueryEvent,
        bad: &Execution,
        bad_event: &QueryEvent,
    ) -> Result<Judged> {
        let sliced = |exec: &Execution, tuples: &[(&NodeId, &Tuple)], at| {
            exec.replay_slice(tuples.iter().copied(), at)
        };
        let whole = |exec: &Execution, _: &[(&NodeId, &Tuple)], _| exec.replay();
        let (report, trees) = self.run(good, good_event, bad, bad_event, &sliced)?;
        let (oracle, oracle_trees) = self.run(good, good_event, bad, bad_event, &whole)?;
        let mut disagreements = Vec::new();
        let mut compare = |field: &str, a: String, b: String| {
            if a != b {
                disagreements.push(format!("{field}: sliced {a} whole {b}"));
            }
        };
        let changes = |d: &[TupleChange]| format!("{d:?}");
        compare("delta", changes(&report.delta), changes(&oracle.delta));
        compare("rounds", format!("{:?}", report.rounds), format!("{:?}", oracle.rounds));
        compare("failure", format!("{:?}", report.failure), format!("{:?}", oracle.failure));
        compare("verified", report.verified.to_string(), oracle.verified.to_string());
        compare("good_seed", format!("{:?}", report.good_seed), format!("{:?}", oracle.good_seed));
        compare("bad_seed", format!("{:?}", report.bad_seed), format!("{:?}", oracle.bad_seed));
        let sizes = |r: &Report| format!("{}/{}", r.good_tree_size, r.bad_tree_size);
        compare("tree sizes", sizes(&report), sizes(&oracle));
        for (side, (a, b)) in ["good tree", "bad tree"].iter().zip(trees.iter().zip(&oracle_trees)) {
            compare(side, a.render_ranked(), b.render_ranked());
        }
        Ok(Judged {
            report,
            disagreements,
        })
    }
}
