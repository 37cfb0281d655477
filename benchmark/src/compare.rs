//! `diagbench compare a.json b.json`: applies the benchmark's bounds to
//! every pairing of end-to-end metric and workload in two result files.

use std::fmt;

use crate::json::Json;
use crate::stats::iqr;

/// By how much an end-to-end metric's median may worsen before it is a
/// regression: the larger of `relative` × the base median and `absolute`.
/// Every end-to-end metric is better when lower.
pub struct Bound {
    pub metric: &'static str,
    pub relative: f64,
    pub absolute: f64,
}

/// `BENCHMARK.json` carries the relative parts. The absolute floor keeps
/// a set-up of a few milliseconds from failing on scheduler noise, and
/// `failed_share` may not rise at all.
pub const BOUNDS: [Bound; 4] = [
    Bound {
        metric: "setup_s",
        relative: 0.25,
        absolute: 0.25,
    },
    Bound {
        metric: "diagnosis_s",
        relative: 0.25,
        absolute: 0.0,
    },
    Bound {
        metric: "peak_rss_mb",
        relative: 0.10,
        absolute: 0.0,
    },
    Bound {
        metric: "failed_share",
        relative: 0.0,
        absolute: 0.0,
    },
];

/// One side of a comparison: a metric's median and the samples behind it
/// (the median alone when the metric is a single reading).
#[derive(Clone, Debug)]
pub struct Side {
    pub median: f64,
    pub samples: Vec<f64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The spread is wider than the bound and the sides overlap: the runs
    /// cannot show that nothing changed.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges `b` against the base `a`.
pub fn judge(bound: &Bound, a: &Side, b: &Side) -> Verdict {
    let allowed = (bound.relative * a.median).max(bound.absolute);
    let worse_by = b.median - a.median;
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    let max = |s: &Side| s.samples.iter().copied().fold(f64::MIN, f64::max);
    let min = |s: &Side| s.samples.iter().copied().fold(f64::MAX, f64::min);
    if iqr(&a.samples).max(iqr(&b.samples)) > allowed {
        // Too noisy to call unchanged, unless one side wins every run.
        return if max(b) < min(a) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison table.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: String,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

fn side(result: &Json, workload: &str, metric: &str) -> Option<(Side, String)> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let samples: Vec<f64> = m
        .get("samples")
        .and_then(Json::as_arr)
        .map(|s| s.iter().filter_map(Json::as_f64).collect())
        .filter(|s: &Vec<f64>| !s.is_empty())
        .unwrap_or_else(|| vec![median]);
    Some((
        Side { median, samples },
        m.get("unit")?.as_str()?.to_string(),
    ))
}

/// Compares two result documents, `a` being the base. A pairing missing
/// from either side is an error: the two runs did not measure the same
/// thing.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("base result has no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for bound in &BOUNDS {
            let missing = |which| format!("{which} result lacks {workload} {}", bound.metric);
            let (sa, unit) = side(a, workload, bound.metric).ok_or_else(|| missing("base"))?;
            let (sb, _) = side(b, workload, bound.metric).ok_or_else(|| missing("second"))?;
            let verdict = judge(bound, &sa, &sb);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.metric,
                unit,
                a: sa,
                b: sb,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; true when every pairing is unchanged or improved.
pub fn print_table(rows: &[Row]) -> bool {
    println!(
        "{:<20} {:<13} {:>10} {:>9} {:>10} {:>9}  {:<24} verdict",
        "workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "b/a (base)"
    );
    for r in rows {
        let ratio = if r.a.median == 0.0 {
            format!("n/a of 0 {}", r.unit)
        } else {
            format!(
                "{:.3}x of {:.4} {}",
                r.b.median / r.a.median,
                r.a.median,
                r.unit
            )
        };
        println!(
            "{:<20} {:<13} {:>10.4} {:>9.4} {:>10.4} {:>9.4}  {:<24} {}",
            r.workload,
            r.metric,
            r.a.median,
            iqr(&r.a.samples),
            r.b.median,
            iqr(&r.b.samples),
            ratio,
            r.verdict
        );
    }
    rows.iter()
        .all(|r| matches!(r.verdict, Verdict::Unchanged | Verdict::Improved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(metric: &str) -> &'static Bound {
        BOUNDS.iter().find(|b| b.metric == metric).unwrap()
    }

    /// A 10 % relative bound, whatever the table above says.
    const TEN_PERCENT: Bound = Bound {
        metric: "t",
        relative: 0.10,
        absolute: 0.0,
    };

    fn tight(median: f64) -> Side {
        Side {
            median,
            samples: vec![median * 0.999, median, median * 1.001],
        }
    }

    #[test]
    fn relative_bound_separates_unchanged_from_regressed_and_improved() {
        let d = &TEN_PERCENT;
        assert_eq!(judge(d, &tight(4.0), &tight(4.3)), Verdict::Unchanged);
        assert_eq!(judge(d, &tight(4.0), &tight(4.5)), Verdict::Regressed);
        assert_eq!(judge(d, &tight(4.0), &tight(3.7)), Verdict::Unchanged);
        assert_eq!(judge(d, &tight(4.0), &tight(3.5)), Verdict::Improved);
    }

    #[test]
    fn setup_has_an_absolute_floor_of_a_quarter_second() {
        let s = bound("setup_s");
        // 5 ms → 200 ms is 40x, yet under the 0.25 s floor.
        assert_eq!(judge(s, &tight(0.005), &tight(0.2)), Verdict::Unchanged);
        assert_eq!(judge(s, &tight(0.005), &tight(0.3)), Verdict::Regressed);
        // Above 1 s the relative part is the larger one.
        assert_eq!(judge(s, &tight(2.5), &tight(3.0)), Verdict::Unchanged);
        assert_eq!(judge(s, &tight(2.5), &tight(3.2)), Verdict::Regressed);
    }

    #[test]
    fn failed_share_may_not_rise_at_all() {
        let f = bound("failed_share");
        let one = |v: f64| Side {
            median: v,
            samples: vec![v],
        };
        assert_eq!(judge(f, &one(0.0), &one(0.0)), Verdict::Unchanged);
        assert_eq!(judge(f, &one(0.0), &one(1.0 / 7.0)), Verdict::Regressed);
        assert_eq!(judge(f, &one(0.5), &one(0.0)), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_wins_every_run() {
        let d = &TEN_PERCENT;
        let noisy = |median: f64, samples: &[f64]| Side {
            median,
            samples: samples.to_vec(),
        };
        let a = noisy(4.0, &[3.2, 3.6, 4.0, 4.4, 4.8, 5.2]);
        // Same median, overlapping runs: not "unchanged".
        assert_eq!(
            judge(d, &a, &noisy(4.0, &[3.3, 3.7, 4.0, 4.3, 4.7, 5.1])),
            Verdict::Unresolved
        );
        // A tight second side does not rescue a noisy base.
        assert_eq!(judge(d, &a, &tight(4.1)), Verdict::Unresolved);
        // Every run of b beats every run of a: resolved, improved.
        assert_eq!(
            judge(d, &a, &noisy(2.5, &[2.0, 2.4, 2.6, 3.1])),
            Verdict::Improved
        );
        // A median beyond the bound is a regression however noisy.
        assert_eq!(
            judge(d, &a, &noisy(5.0, &[4.0, 5.0, 6.0])),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_walks_every_pairing_and_rejects_a_missing_one() {
        let doc = |diagnosis: f64| {
            let metric = |v: f64, unit: &str| {
                Json::obj([
                    ("value", Json::from(v)),
                    ("unit", Json::from(unit)),
                    ("samples", Json::nums(&[v, v])),
                ])
            };
            let w = Json::obj([(
                "end_to_end",
                Json::obj([
                    ("setup_s", metric(0.04, "s")),
                    ("diagnosis_s", metric(diagnosis, "s")),
                    ("peak_rss_mb", metric(870.0, "MB")),
                    ("failed_share", metric(0.0, "ratio")),
                ]),
            )]);
            Json::obj([("workloads", Json::obj([("campus_tables", w)]))])
        };
        let rows = compare(&doc(4.0), &doc(5.2)).unwrap();
        let verdicts: Vec<_> = rows.iter().map(|r| (r.metric, r.verdict)).collect();
        assert_eq!(
            verdicts,
            [
                ("setup_s", Verdict::Unchanged),
                ("diagnosis_s", Verdict::Regressed),
                ("peak_rss_mb", Verdict::Unchanged),
                ("failed_share", Verdict::Unchanged),
            ]
        );
        assert!(!print_table(&rows));
        let empty = Json::obj([(
            "workloads",
            Json::obj([("campus_tables", Json::obj::<&str>([]))]),
        )]);
        assert!(compare(&doc(4.0), &empty)
            .unwrap_err()
            .contains("second result lacks campus_tables setup_s"));
    }
}
