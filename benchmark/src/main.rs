use std::path::PathBuf;
use std::process::ExitCode;

use diagbench::compare::{compare, print_table};
use diagbench::json::Json;
use diagbench::probe::run_probe;
use diagbench::suite::{run_suite, SuiteArgs};
use diagbench::timed::{run_timed, RunArgs};
use diagbench::workload::Workload;

const USAGE: &str = "\
usage: diagbench --workload W --seed N --seconds S --trace 0|1 [--reps N] [--smoke] [--out DIR]
           one run of one workload: --trace 0 times it, --trace 1 probes its layers
       diagbench [--seed N] [--reps N] [--workload W] [--smoke] [--twice] [--record] [--out DIR]
           the suite: every workload, both phases, one result document
       diagbench compare <a.json> <b.json>
           apply the bounds to two result documents, a being the base";

fn main() -> ExitCode {
    // The engine's defaults are what is measured: no `DP_*` knob reaches
    // this process or its children. Nothing else runs yet, so editing the
    // environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DP_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("diagbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.into());
        };
        let read = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        return Ok(print_table(&compare(&read(a)?, &read(b)?)?));
    }

    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = None;
    let mut trace = None;
    let mut reps = None;
    let mut out = PathBuf::from("benchmark/out");
    let (mut smoke, mut twice, mut record) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = Some(number(value()?)? as f64),
            "--trace" => trace = Some(number(value()?)?),
            "--reps" => reps = Some(number(value()?)?.max(1) as usize),
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--twice" => twice = true,
            "--record" => record = true,
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }

    // Temporary store directories go under the output directory, so a run
    // writes nothing outside its checkout.
    let tmp = std::path::absolute(out.join("tmp")).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    if trace.is_none() && seconds.is_none() {
        let reps = reps.unwrap_or(if smoke { 1 } else { 6 });
        return run_suite(&SuiteArgs {
            seed,
            reps,
            workload,
            smoke,
            out,
            twice,
            record,
        });
    }
    let workload = workload.ok_or_else(|| format!("a single run needs --workload\n{USAGE}"))?;
    let reps = reps.or(smoke.then_some(1));
    let run = RunArgs {
        workload,
        seed,
        seconds: seconds.unwrap_or(20.0),
        reps,
        smoke,
        out,
    };
    let mut outcome = match trace {
        Some(1) => run_probe(&run),
        Some(0) | None => run_timed(&run),
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    }
    .map_err(|e| format!("{}: {e}", workload.name))?;
    outcome.print(workload.name);
    Ok(outcome.correct)
}
