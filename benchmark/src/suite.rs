//! The full suite: every workload, each phase in a child process of its
//! own, merged into one result document; plus the noise self-check
//! (`--twice`) and the history line (`--record`).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::compare::{compare, print_table};
use crate::json::Json;
use crate::outcome::{nproc, Metric};
use crate::workload::{Workload, WORKLOADS};

pub struct SuiteArgs {
    pub seed: u64,
    /// Timed repetitions per workload after the warm-up.
    pub reps: usize,
    /// Run this workload only.
    pub workload: Option<&'static Workload>,
    pub smoke: bool,
    pub out: PathBuf,
    /// Run the suite twice on this build and compare the two results.
    pub twice: bool,
    /// Append the (last) result to the history file.
    pub record: bool,
}

/// Where `--record` appends, relative to the repository root.
const HISTORY: &str = "benchmark/history.jsonl";

/// Runs the suite; true when every check passed (and, with `--twice`,
/// the two passes agree within the bounds).
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let (mut result, mut ok) = run_pass(args)?;
    if args.twice {
        write(&args.out.join("result.a.json"), &result)?;
        let (second, second_ok) = run_pass(args)?;
        write(&args.out.join("result.b.json"), &second)?;
        let rows = compare(&result, &second)?;
        ok &= second_ok & print_table(&rows);
        result = second;
    }
    write(&args.out.join("result.json"), &result)?;
    if args.record {
        let line = history_line(&result);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(HISTORY)
            .and_then(|mut file| writeln!(file, "{line}"))
            .map_err(|e| format!("appending to {HISTORY}: {e}"))?;
    }
    println!("{result}");
    Ok(ok)
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One pass over the workloads: the result document and whether every
/// child reported itself correct.
fn run_pass(args: &SuiteArgs) -> Result<(Json, bool), String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let timed = run_child(args, w, 0)?;
        let probe = run_child(args, w, 1)?;
        ok &= timed.correct && probe.correct;
        // End to end: the timed child's contract metrics and its failure
        // share. Everything else either child printed is per-layer.
        let (end_to_end, context): (Vec<_>, Vec<_>) = timed
            .lines
            .into_iter()
            .partition(|m| timed.contract.contains(&m.name) || m.name == "failed_share");
        let per_layer = probe.lines.into_iter().chain(context);
        workloads.push((
            w.name,
            Json::obj([
                ("correct", Json::from(timed.correct && probe.correct)),
                ("attempted", Json::from(timed.attempted)),
                ("failed", Json::from(timed.failed)),
                ("end_to_end", metrics_json(end_to_end)),
                ("per_layer", metrics_json(per_layer)),
            ]),
        ));
    }
    let meta = Json::obj([
        ("seed", Json::from(args.seed)),
        ("reps", Json::from(args.reps as u64)),
        ("smoke", Json::from(args.smoke)),
        ("nproc", Json::from(nproc())),
    ]);
    Ok((
        Json::obj([("meta", meta), ("workloads", Json::obj(workloads))]),
        ok,
    ))
}

fn metrics_json(metrics: impl IntoIterator<Item = Metric>) -> Json {
    Json::obj(metrics.into_iter().map(|m| {
        let mut fields = vec![("value", Json::from(m.value)), ("unit", Json::from(m.unit))];
        if !m.samples.is_empty() {
            fields.push(("samples", Json::nums(&m.samples)));
        }
        (m.name, Json::obj(fields))
    }))
}

/// What a child run printed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Names of the metrics in the child's final JSON object.
    contract: Vec<String>,
    /// Every `workload metric value unit` line, samples folded in.
    lines: Vec<Metric>,
}

/// Runs one phase of one workload in a child process and echoes its
/// metric lines. The child inherits this process's environment, which
/// `main` scrubbed of every `DP_*` variable.
fn run_child(args: &SuiteArgs, w: &Workload, trace: u8) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating diagbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--trace", &trace.to_string()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--reps",
            &args.reps.to_string(),
        ])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {} (trace {trace}): {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let child = parse_child(&stdout).map_err(|e| format!("{} (trace {trace}): {e}", w.name))?;
    for m in &child.lines {
        println!("{} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    Ok(Child {
        correct: child.correct && output.status.success(),
        ..child
    })
}

fn parse_child(stdout: &str) -> Result<Child, String> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the run printed nothing")?;
    let summary = Json::parse(last).map_err(|e| format!("last line is not JSON ({e}): {last}"))?;
    let field = |key: &str| {
        summary
            .get(key)
            .ok_or_else(|| format!("result lacks {key}"))
    };
    let mut metrics: Vec<Metric> = Vec::new();
    for line in lines {
        let [_, name, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] else {
            return Err(format!("not a metric line: {line}"));
        };
        let value: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
        match name.strip_suffix(".sample") {
            Some(base) => {
                let m = metrics
                    .iter_mut()
                    .find(|m| m.name == base)
                    .ok_or_else(|| format!("stray sample: {line}"))?;
                m.samples.push(value);
            }
            None => metrics.push(Metric::new(name, value, unit)),
        }
    }
    Ok(Child {
        correct: field("correct")?
            .as_bool()
            .ok_or("correct is not a boolean")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        contract: field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(k, _)| k.clone())
            .collect(),
        lines: metrics,
    })
}

/// One line of the trajectory: where and when the numbers were taken,
/// the end-to-end cells, and the size of the engine's source (so that
/// simplification is measured too).
fn history_line(result: &Json) -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or(Json::Null, |o| {
                Json::from(String::from_utf8_lossy(&o.stdout).trim())
            })
    };
    let cells = result
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(w, doc)| {
            let end_to_end = doc
                .get("end_to_end")
                .and_then(Json::as_obj)
                .unwrap_or_default();
            let values = end_to_end
                .iter()
                .map(|(m, v)| (m.clone(), v.get("value").cloned().unwrap_or(Json::Null)));
            (w.clone(), Json::obj(values))
        });
    Json::obj([
        ("commit", tool("git", &["rev-parse", "--short", "HEAD"])),
        ("date", tool("date", &["-u", "+%Y-%m-%d"])),
        ("rustc", tool("rustc", &["--version"])),
        ("meta", result.get("meta").cloned().unwrap_or(Json::Null)),
        ("end_to_end", Json::obj(cells)),
        (
            "ndlog_src_lines",
            Json::from(rust_lines(Path::new("crates/ndlog/src"))),
        ),
    ])
}

/// Lines in the `.rs` files under `dir`, recursively (`wc -l`).
fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| match p.extension().and_then(|x| x.to_str()) {
            _ if p.is_dir() => rust_lines(&p),
            Some("rs") => std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_into_metrics_with_their_samples() {
        let stdout = "\
campus_tables setup_s 0.0361 s
campus_tables setup_s.sample 0.0523 s
campus_tables setup_s.sample 0.0361 s
campus_tables peak_rss_mb 870.3 MB
campus_tables failed_share 0 ratio
{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.0361,\"unit\":\"s\"},\"peak_rss_mb\":{\"value\":870.3,\"unit\":\"MB\"}}}
";
        let child = parse_child(stdout).unwrap();
        assert!(child.correct);
        assert_eq!((child.attempted, child.failed), (7, 0));
        assert_eq!(child.contract, ["setup_s", "peak_rss_mb"]);
        assert_eq!(child.lines.len(), 3);
        assert_eq!(child.lines[0].samples, [0.0523, 0.0361]);
        assert_eq!(child.lines[1], Metric::new("peak_rss_mb", 870.3, "MB"));
    }

    #[test]
    fn child_output_without_a_result_is_an_error() {
        assert!(parse_child("").is_err());
        assert!(parse_child("campus_tables setup_s 0.03 s\n").is_err());
        assert!(parse_child("three token line\n{\"correct\":true}\n").is_err());
        assert!(parse_child("{\"correct\":true,\"attempted\":1,\"failed\":0}\n").is_err());
    }

    #[test]
    fn result_metrics_round_trip_through_json() {
        let m = Metric {
            samples: vec![4.4, 4.6],
            ..Metric::new("diagnosis_s", 4.5, "s")
        };
        let doc = metrics_json([m, Metric::new("peak_rss_mb", 870.25, "MB")]);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("diagnosis_s")
                .unwrap()
                .get("samples")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert!(back.get("peak_rss_mb").unwrap().get("samples").is_none());
    }
}
