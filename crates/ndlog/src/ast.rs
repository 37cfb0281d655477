//! The rule AST of the NDlog dialect.
//!
//! Rules follow the paper's Section 3.1 notation:
//!
//! ```text
//! r1 packetOut(@S, Src, Dst, Port) :- packetIn(@S, Src, Dst),
//!     flowEntry(@S, Rid, Prio, Match, Port),
//!     prefix_contains(Match, Dst), best_match(S, Dst, Prio).
//! ```
//!
//! * Every body atom must be located at the **same** node variable (the
//!   link-restricted, localized form that RapidNet executes); the head may
//!   be located elsewhere, which models a message send.
//! * `Var := Expr` assignments compute new values.
//! * Boolean expressions act as constraints; calls to *stateful builtins*
//!   (registered on the [`crate::Program`]) may also appear as constraints.

use std::fmt;

use dp_types::{Result, Sym, Value};

use crate::expr::{Env, Expr};

/// A term in a body-atom argument position: a variable, a literal, or the
/// `_` wildcard.
#[derive(Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Bind (or match against) a variable.
    Var(Sym),
    /// Match a literal value.
    Const(Value),
    /// Match anything, bind nothing.
    Wildcard,
}

impl Pattern {
    /// Matches `value` under `env`, extending `env` on success.
    ///
    /// A variable already bound in `env` must agree with `value`; an unbound
    /// variable is bound to it.
    pub fn matches(&self, value: &Value, env: &mut Env) -> bool {
        match self {
            Pattern::Wildcard => true,
            Pattern::Const(c) => c == value,
            Pattern::Var(v) => match env.get(v) {
                Some(bound) => bound == value,
                None => {
                    env.insert(*v, value.clone());
                    true
                }
            },
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Var(v) => write!(f, "{v}"),
            Pattern::Const(c) => write!(f, "{c}"),
            Pattern::Wildcard => f.write_str("_"),
        }
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A body atom: `table(@Loc, p1, p2, ...)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BodyAtom {
    /// Table name.
    pub table: Sym,
    /// The location variable (shared by all body atoms of a rule).
    pub loc: Sym,
    /// Argument patterns, in schema order.
    pub args: Vec<Pattern>,
}

impl fmt::Display for BodyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.table, self.loc)?;
        for a in &self.args {
            write!(f, ",{a}")?;
        }
        f.write_str(")")
    }
}

/// The head of a rule: `table(@LocExpr, e1, e2, ...)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeadAtom {
    /// Table name of the derived tuple.
    pub table: Sym,
    /// Where the derived tuple should live. Usually a variable; when it
    /// differs from the body location, the derivation is a message send.
    pub loc: Expr,
    /// Head argument expressions.
    pub args: Vec<Expr>,
}

impl fmt::Display for HeadAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.table, self.loc)?;
        for a in &self.args {
            write!(f, ",{a}")?;
        }
        f.write_str(")")
    }
}

/// A constraint in a rule body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// A pure boolean expression that must evaluate to `true`.
    Expr(Expr),
    /// A call to a stateful builtin registered on the program, e.g.
    /// `best_match(S, Dst, Prio)` — evaluated against the node's current
    /// table state (used to model OpenFlow priority resolution).
    Builtin {
        /// Registered builtin name.
        name: Sym,
        /// Argument expressions (must be closed when evaluated).
        args: Vec<Expr>,
    },
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Expr(e) => write!(f, "{e}"),
            Constraint::Builtin { name, args } => {
                write!(f, "{name}!(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// An assignment `var := expr`, evaluated after the body atoms bind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assign {
    /// The variable being defined.
    pub var: Sym,
    /// Its defining expression.
    pub expr: Expr,
}

impl fmt::Display for Assign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {}", self.var, self.expr)
    }
}

/// An aggregation function — NDlog's `a<...>` head aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `agg_sum(V)`
    Sum,
    /// `agg_count(V)`
    Count,
    /// `agg_min(V)`
    Min,
    /// `agg_max(V)`
    Max,
}

impl AggFunc {
    /// The marker name used in rule text.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "agg_sum",
            AggFunc::Count => "agg_count",
            AggFunc::Min => "agg_min",
            AggFunc::Max => "agg_max",
        }
    }

    /// Parses a marker name.
    pub fn from_name(s: &str) -> Option<AggFunc> {
        Some(match s {
            "agg_sum" => AggFunc::Sum,
            "agg_count" => AggFunc::Count,
            "agg_min" => AggFunc::Min,
            "agg_max" => AggFunc::Max,
            _ => return None,
        })
    }

    /// Folds one value into the accumulator.
    pub fn fold(self, acc: Option<i64>, v: i64) -> i64 {
        match (self, acc) {
            (AggFunc::Count, None) => 1,
            (AggFunc::Count, Some(a)) => a + 1,
            (_, None) => v,
            (AggFunc::Sum, Some(a)) => a + v,
            (AggFunc::Min, Some(a)) => a.min(v),
            (AggFunc::Max, Some(a)) => a.max(v),
        }
    }
}

/// The aggregate position of an aggregation rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggSpec {
    /// The aggregation function.
    pub func: AggFunc,
    /// The body variable being aggregated.
    pub var: Sym,
    /// Which head argument holds the aggregate.
    pub head_index: usize,
}

/// A derivation rule `name head :- body, assigns, constraints.`
///
/// When `agg` is set, the rule is an **aggregation rule** (NDlog's
/// `a<sum>` et al.): its first body atom is the *fence* that triggers the
/// aggregation, the remaining atoms are scanned and joined against the
/// node's state at fence time, results are grouped by the non-aggregate
/// head arguments, and one head tuple is derived per group. The reported
/// provenance of each group is the fence plus every contributing tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Rule name (unique within a program; recorded in DERIVE vertices).
    pub name: Sym,
    /// The derived atom.
    pub head: HeadAtom,
    /// Body atoms (all at the same location variable).
    pub body: Vec<BodyAtom>,
    /// Assignments, evaluated in order after the atoms bind.
    pub assigns: Vec<Assign>,
    /// Constraints, all of which must hold.
    pub constraints: Vec<Constraint>,
    /// Message delay in logical ticks when the head location differs from
    /// the body location (defaults to 1).
    pub link_delay: u64,
    /// Aggregation marker (see the type docs).
    pub agg: Option<AggSpec>,
}

impl Rule {
    /// Evaluates the rule's assignments in order, extending `env`.
    pub fn run_assigns(&self, env: &mut Env) -> Result<()> {
        for a in &self.assigns {
            let v = a.expr.eval(env)?;
            env.insert(a.var, v);
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} :- ", self.name, self.head)?;
        let mut first = true;
        for b in &self.body {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{b}")?;
            first = false;
        }
        for a in &self.assigns {
            write!(f, ", {a}")?;
        }
        for c in &self.constraints {
            write!(f, ", {c}")?;
        }
        f.write_str(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn pattern_matching_extends_env() {
        let mut env = Env::new();
        assert!(Pattern::Var(Sym::new("x")).matches(&Value::Int(3), &mut env));
        assert_eq!(env.get(&Sym::new("x")), Some(&Value::Int(3)));
        // Re-matching the same variable requires equality (join semantics).
        assert!(Pattern::Var(Sym::new("x")).matches(&Value::Int(3), &mut env));
        assert!(!Pattern::Var(Sym::new("x")).matches(&Value::Int(4), &mut env));
        assert!(Pattern::Wildcard.matches(&Value::Int(9), &mut env));
        assert!(Pattern::Const(Value::Int(9)).matches(&Value::Int(9), &mut env));
        assert!(!Pattern::Const(Value::Int(9)).matches(&Value::Int(8), &mut env));
    }

    #[test]
    fn assigns_run_in_order() {
        let rule = Rule {
            name: Sym::new("r"),
            head: HeadAtom {
                table: Sym::new("h"),
                loc: Expr::var("N"),
                args: vec![],
            },
            body: vec![],
            assigns: vec![
                Assign {
                    var: Sym::new("a"),
                    expr: Expr::val(2),
                },
                Assign {
                    var: Sym::new("b"),
                    expr: Expr::bin(BinOp::Mul, Expr::var("a"), Expr::val(3)),
                },
            ],
            constraints: vec![],
            link_delay: 1,
            agg: None,
        };
        let mut env = Env::new();
        rule.run_assigns(&mut env).unwrap();
        assert_eq!(env.get(&Sym::new("b")), Some(&Value::Int(6)));
    }

    #[test]
    fn display_reads_like_ndlog() {
        let rule = Rule {
            name: Sym::new("r1"),
            head: HeadAtom {
                table: Sym::new("packetOut"),
                loc: Expr::var("S"),
                args: vec![Expr::var("Dst"), Expr::var("Port")],
            },
            body: vec![BodyAtom {
                table: Sym::new("packetIn"),
                loc: Sym::new("S"),
                args: vec![Pattern::Var(Sym::new("Dst"))],
            }],
            assigns: vec![],
            constraints: vec![Constraint::Expr(Expr::bin(
                BinOp::Gt,
                Expr::var("Port"),
                Expr::val(0),
            ))],
            link_delay: 1,
            agg: None,
        };
        let s = rule.to_string();
        assert!(s.starts_with("r1 packetOut(@S,Dst,Port) :- packetIn(@S,Dst)"), "{s}");
        assert!(s.contains("(Port > 0)"), "{s}");
    }
}
