//! The timed phase: end-to-end metrics, measured with tracing off in a
//! process that runs this one workload and nothing else, so its `VmHWM`
//! is the workload's alone.

use std::sync::Arc;
use std::time::Instant;

use dp_ndlog::{Engine, NullSink};
use dp_types::Result;

use crate::calibrate;
use crate::outcome::{nproc, proc_status_mb, Metric, Outcome};
use crate::stats;
use crate::workload::{Checker, Workload};

/// Fewest timed repetitions behind a `diagnosis_s` median when the run is
/// bounded by `--seconds`. The suite asks for six.
pub const MIN_REPS: usize = 4;

/// Set-up is repeated, to make `setup_s` a median, until it has taken
/// this long in total or run this often. A set-up that spills to a store
/// takes seconds and is sampled once; one that takes milliseconds is
/// sampled `MAX_SETUPS` times.
const SETUP_BUDGET_S: f64 = 1.5;
const MAX_SETUPS: usize = 30;

/// How one run was asked to measure.
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Timed repetitions continue until this many seconds have passed
    /// (and `MIN_REPS` are done), unless `reps` pins their number.
    pub seconds: f64,
    pub reps: Option<usize>,
    pub smoke: bool,
    /// Directory for trace files.
    pub out: std::path::PathBuf,
}

pub fn run_timed(args: &RunArgs) -> Result<Outcome> {
    let w = args.workload;

    let before_setups = calibrate::point(args.smoke);
    let mut setup_raw = Vec::new();
    let setups_started = Instant::now();
    let prepared = loop {
        let t = Instant::now();
        let prepared = w.setup(args.seed, args.smoke, None)?;
        setup_raw.push(t.elapsed().as_secs_f64());
        if setup_raw.len() >= MAX_SETUPS || setups_started.elapsed().as_secs_f64() >= SETUP_BUDGET_S
        {
            break prepared;
        }
        // The previous set-up (and its store directory) goes before the
        // next starts; its drop is not set-up time.
        drop(prepared);
    };
    let setup_index = calibrate::index(&before_setups, &calibrate::point(args.smoke));
    let setup_samples = setup_raw.iter().map(|s| s / setup_index).collect();

    let mut checker = Checker::default();
    let mut timed_unit = || {
        let t = Instant::now();
        let diagnosed = prepared.diagnose(None);
        let seconds = t.elapsed().as_secs_f64();
        checker.check(&diagnosed.report);
        seconds
    };

    // One discarded warm-up: what a one-shot user pays, with first-touch
    // page faults; too noisy to be an end-to-end metric.
    let cold_s = timed_unit();
    // Each repetition sits between two calibration points and is reported
    // at reference speed: its wall time over the speed index around it.
    let mut raw = Vec::new();
    let mut indices = Vec::new();
    let mut before = calibrate::point(args.smoke);
    let timing_started = Instant::now();
    loop {
        let wall = timed_unit();
        let after = calibrate::point(args.smoke);
        raw.push(wall);
        indices.push(calibrate::index(&before, &after));
        before = after;
        let done = match args.reps {
            Some(n) => raw.len() >= n,
            None => raw.len() >= MIN_REPS && timing_started.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
    }
    let samples: Vec<f64> = raw
        .iter()
        .zip(&indices)
        .map(|(wall, index)| wall / index)
        .collect();
    let retained_rss_mb = proc_status_mb("VmRSS");
    let peak_rss_mb = proc_status_mb("VmHWM");

    let threads = Engine::new(
        Arc::clone(&prepared.campus.scenario.bad_exec.program),
        NullSink,
    )
    .threads();

    let mut context = vec![
        Metric::new(
            "failed_share",
            checker.failed as f64 / checker.attempted as f64,
            "ratio",
        ),
        Metric::count("ops", checker.attempted),
        Metric::count("failed_ops", checker.failed),
        Metric::median_of("diag.wall_s", raw, "s"),
        Metric::new("diag.cold_s", cold_s, "s"),
        Metric::new("diag.iqr_s", stats::iqr(&samples), "s"),
        Metric::count("diag.samples", samples.len() as u64),
        Metric::new("diag.speed_index", stats::median(&indices), "ratio"),
        Metric::new("diag.setup_wall_s", stats::median(&setup_raw), "s"),
        Metric::new("diag.retained_rss_mb", retained_rss_mb, "MB"),
        Metric::count("nproc", nproc()),
        Metric::count("engine_threads", threads as u64),
    ];
    if let Some(p) = stats::tail_percentile(samples.len()) {
        context.push(Metric::new(
            &format!("diagnosis_p{p}_s"),
            stats::percentile(&samples, p),
            "s",
        ));
    }
    Ok(Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            Metric::median_of("setup_s", setup_samples, "s"),
            Metric::median_of("diagnosis_s", samples, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        context,
    })
}
