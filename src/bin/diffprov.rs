//! The `diffprov` command-line debugger.
//!
//! ```text
//! cargo run --bin diffprov -- list
//! cargo run --bin diffprov -- run SDN1
//! cargo run --bin diffprov -- tree SDN1 bad
//! cargo run --bin diffprov -- chain SDN1 good
//! ```
//!
//! A thin operator console over the library: list the built-in diagnostic
//! scenarios, run DiffProv on one, inspect the provenance trees and
//! trigger chains it reasons over.

use diffprov::core::Scenario;
use diffprov::provenance::tuple_view;
use diffprov::{mapreduce, sdn};

fn scenarios() -> Vec<Scenario> {
    let mut all = sdn::all_sdn_scenarios();
    all.extend(mapreduce::all_mr_scenarios());
    all.push(sdn::flapping());
    all.push(sdn::ecmp_same_branch());
    all.push(sdn::nat_rewrite());
    all.push(sdn::campus(&sdn::CampusConfig::default()).scenario);
    all
}

fn find(name: &str) -> Scenario {
    scenarios()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown scenario {name:?}; try `diffprov list`");
            std::process::exit(2);
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(arg(&args, 1)),
        Some("tree") => cmd_tree(arg(&args, 1), arg(&args, 2)),
        Some("chain") => cmd_chain(arg(&args, 1), arg(&args, 2)),
        _ => {
            eprintln!(
                "usage: diffprov <command>\n\
                 \n\
                 commands:\n\
                 \x20 list                 list the built-in diagnostic scenarios\n\
                 \x20 run <name>           run DiffProv on a scenario\n\
                 \x20 tree <name> good|bad print an event's provenance tree\n\
                 \x20 chain <name> good|bad print an event's trigger chain"
            );
            std::process::exit(2);
        }
    }
}

fn arg(args: &[String], i: usize) -> &str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing argument; see `diffprov` for usage");
        std::process::exit(2);
    })
}

fn cmd_list() {
    println!("{:<8} description", "name");
    for s in scenarios() {
        println!("{:<8} {}", s.name, s.description);
    }
}

fn cmd_run(name: &str) {
    let s = find(name);
    println!("scenario {}: {}\n", s.name, s.description);
    println!("good event: {} (t={})", s.good_event.tref, fmt_t(s.good_event.at));
    println!("bad event:  {} (t={})\n", s.bad_event.tref, fmt_t(s.bad_event.at));
    let report = s.diagnose().expect("diagnosis runs");
    println!(
        "trees: good {} / bad {} vertexes; seeds {} / {}\n",
        report.good_tree_size,
        report.bad_tree_size,
        report.good_seed.as_ref().map(|s| s.to_string()).unwrap_or_default(),
        report.bad_seed.as_ref().map(|s| s.to_string()).unwrap_or_default(),
    );
    print!("{report}");
    let m = report.metrics;
    println!(
        "\ntiming: total {:.2?} (replay {:.2?}, reasoning {:.2?})",
        m.total(),
        m.replay,
        m.reasoning()
    );
}

fn fmt_t(t: u64) -> String {
    if t == u64::MAX {
        "now".to_string()
    } else {
        t.to_string()
    }
}

fn event_of(s: &Scenario, which: &str) -> (diffprov::replay::Execution, diffprov::QueryEvent) {
    match which {
        "good" => (s.good_exec.clone(), s.good_event.clone()),
        "bad" => (s.bad_exec.clone(), s.bad_event.clone()),
        other => {
            eprintln!("expected `good` or `bad`, got {other:?}");
            std::process::exit(2);
        }
    }
}

fn cmd_tree(name: &str, which: &str) {
    let s = find(name);
    let (exec, ev) = event_of(&s, which);
    let r = exec.replay().expect("replay");
    match r.query_at(&ev.tref, ev.at) {
        Some(tree) => {
            println!("provenance of {} — {} vertexes:\n", ev.tref, tree.len());
            print!("{}", tree.render());
        }
        None => println!("{} has no provenance at t={}", ev.tref, fmt_t(ev.at)),
    }
}

fn cmd_chain(name: &str, which: &str) {
    let s = find(name);
    let (exec, ev) = event_of(&s, which);
    let r = exec.replay().expect("replay");
    let Some(tree) = r.query_at(&ev.tref, ev.at) else {
        println!("{} has no provenance at t={}", ev.tref, fmt_t(ev.at));
        return;
    };
    let view = tuple_view(&tree);
    println!("trigger chain of {} (stimulus first):", ev.tref);
    for idx in view.trigger_chain() {
        let n = view.node(idx);
        match &n.rule {
            Some(rule) => println!("  {}  [via rule {}]", n.tref, rule),
            None => println!("  {}  [stimulus]", n.tref),
        }
    }
}
