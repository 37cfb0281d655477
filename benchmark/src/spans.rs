//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span is one
//! public call, timed from outside.

use std::time::Instant;

use crate::json::Json;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ndlog.eval`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one diagnosis share a repetition id; layer probes outside
    /// any diagnosis carry 0.
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span recorder: spans are kept in start order and written out when
/// the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Repetition id stamped on spans started from now on.
    pub rep: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span open at
    /// the call. Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (value, self.spans[id].seconds())
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of span `id` in seconds: its duration minus the part its
    /// direct children cover. Children never overlap (one thread, strict
    /// nesting), so that part is the sum of their durations.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        own.saturating_sub(children) as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::from(id as u64)),
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("rep", Json::from(u64::from(s.rep))),
                        ("self_s", Json::from(self.self_seconds(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = Spans {
            spans: vec![
                raw("diag.rep", 0, 10_000_000_000, None),
                raw("replay.layers.open", 1_000_000_000, 2_000_000_000, Some(0)),
                raw("diag.diagnose", 2_500_000_000, 9_500_000_000, Some(0)),
                // A grandchild is charged to its parent, not to the root.
                raw("inner", 3_000_000_000, 4_000_000_000, Some(2)),
            ],
            ..Spans::default()
        };
        assert_eq!(spans.self_seconds(0), 2.0);
        assert_eq!(spans.self_seconds(1), 1.0);
        assert_eq!(spans.self_seconds(2), 6.0);
        assert_eq!(spans.self_seconds(3), 1.0);
        // Self times of a tree sum to the root's duration.
        let total: f64 = (0..4).map(|i| spans.self_seconds(i)).sum();
        assert_eq!(total, spans.spans[0].seconds());
    }

    #[test]
    fn nesting_records_parents_and_repetition_ids() {
        let mut spans = Spans::default();
        spans.span("a", |s| {
            s.span("b", |_| ());
            s.rep = 3;
            s.span("c", |_| ());
        });
        spans.span("d", |_| ());
        let all = &spans.spans;
        let shape: Vec<_> = all.iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            shape,
            [
                ("a", None, 0),
                ("b", Some(0), 0),
                ("c", Some(0), 3),
                ("d", None, 3)
            ]
        );
        assert!(all[0].start_ns <= all[1].start_ns && all[2].end_ns <= all[0].end_ns);
        assert!(spans.self_seconds(0) <= all[0].seconds());
        assert_eq!(spans.seconds_of("b").len(), 1);
    }

    #[test]
    fn trace_json_carries_every_field() {
        let mut spans = Spans::default();
        spans.span("outer", |s| s.span("inner", |_| ()));
        let json = Json::parse(&spans.to_json().to_string()).unwrap();
        let inner = &json.as_arr().unwrap()[1];
        assert_eq!(inner.get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(inner.get("parent").unwrap().as_f64(), Some(0.0));
        for key in ["id", "start_ns", "end_ns", "rep", "self_s"] {
            assert!(inner.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.as_arr().unwrap()[0].get("parent"), Some(&Json::Null));
    }
}
