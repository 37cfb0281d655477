//! The seed-sweep driver shared by the CLIs and the test suite.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dp_types::Result;

use crate::battery::{check_scenario, BatteryReport, Violation};
use crate::corpus::CorpusCase;
use crate::scenario::{generate_masked, SimScenario};
use crate::shrink::ddmin;

/// Aggregated results of sweeping a block of seeds.
#[derive(Clone, Debug, Default)]
pub struct SimSummary {
    /// Seeds swept.
    pub seeds: u64,
    /// Scenarios whose good/bad executions delivered differently.
    pub divergent: usize,
    /// Scenarios where DiffProv ran on the divergent packet.
    pub diagnosed: usize,
    /// Scenarios where the diagnosis aligned the trees.
    pub diagnosis_succeeded: usize,
    /// How often each [`BatteryReport::failure`] name ended a diagnosis.
    pub failure_counts: BTreeMap<&'static str, usize>,
    /// How often each injection kind was applied.
    pub kind_counts: BTreeMap<&'static str, usize>,
    /// Every violation found, with the seed it came from.
    pub violations: Vec<(u64, Violation)>,
    /// Corpus files written for shrunk failing schedules.
    pub corpus_written: Vec<PathBuf>,
}

impl SimSummary {
    /// True when no seed violated any invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sweeps seeds `start..start + count` through the battery. For every
/// failing seed the injection schedule is shrunk with [`ddmin`] and — when
/// `corpus_dir` is given — persisted as a `.case` file there. `progress`
/// is called once per seed with the battery report. A seed whose scenario
/// cannot be generated stops the sweep with that error.
pub fn run_seeds(
    start: u64,
    count: u64,
    corpus_dir: Option<&Path>,
    mut progress: impl FnMut(u64, &BatteryReport),
) -> Result<SimSummary> {
    let mut summary = SimSummary {
        seeds: count,
        ..SimSummary::default()
    };
    for seed in start..start.saturating_add(count) {
        let sc = generate_masked(seed, None)?;
        let report = check_scenario(&sc);
        summary.divergent += usize::from(report.divergent);
        summary.diagnosed += usize::from(report.diagnosed);
        summary.diagnosis_succeeded += usize::from(report.diagnosis_succeeded);
        if let Some(name) = report.failure {
            *summary.failure_counts.entry(name).or_default() += 1;
        }
        for kind in &report.kinds {
            *summary.kind_counts.entry(kind).or_default() += 1;
        }
        progress(seed, &report);
        if !report.passed() {
            let (min_keep, min_report) = shrink_failure(&sc)?;
            if let Some(dir) = corpus_dir {
                match persist_case(dir, seed, &min_keep, &min_report) {
                    Ok(path) => summary.corpus_written.push(path),
                    Err(e) => eprintln!("warning: could not persist corpus case: {e}"),
                }
            }
            summary
                .violations
                .extend(report.violations.into_iter().map(|v| (seed, v)));
        }
    }
    Ok(summary)
}

/// Shrinks a failing scenario's applied injection set to a 1-minimal
/// failing schedule, returning the kept indexes and the (still failing)
/// report of the minimized scenario. A mask whose scenario cannot be
/// generated does not fail the battery, so ddmin never keeps it.
pub fn shrink_failure(sc: &SimScenario) -> Result<(Vec<usize>, BatteryReport)> {
    let min_keep = ddmin(&sc.applied, |keep| {
        generate_masked(sc.seed, Some(keep)).is_ok_and(|sc| !check_scenario(&sc).passed())
    });
    let min_report = check_scenario(&generate_masked(sc.seed, Some(&min_keep))?);
    Ok((min_keep, min_report))
}

fn persist_case(
    dir: &Path,
    seed: u64,
    keep: &[usize],
    report: &BatteryReport,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let invariant = report
        .violations
        .first()
        .map(|v| v.invariant.to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let case = CorpusCase {
        seed,
        keep: Some(keep.to_vec()),
        invariant: invariant.clone(),
        note: format!(
            "auto-shrunk to {} injection(s); first violation: {}",
            keep.len(),
            report
                .violations
                .first()
                .map(|v| v.detail.clone())
                .unwrap_or_default()
        ),
    };
    let path = dir.join(format!("sim-seed{seed}-{invariant}.case"));
    std::fs::write(&path, case.render())?;
    Ok(path)
}
