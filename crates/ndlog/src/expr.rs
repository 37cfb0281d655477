//! The expression language of rule bodies — evaluation **and inversion**.
//!
//! Rules use expressions in three places: head arguments, assignments
//! (`d := 2*c + 1`), and boolean constraints. DiffProv (Section 4.3–4.5 of
//! the paper) additionally needs to *invert* the computations performed by a
//! rule while propagating taints downward: if a tuple `abc(5,8)` was derived
//! using `q = x + 2`, DiffProv must solve `x = q - 2` to learn which child
//! tuple is required. [`Expr::invert`] implements this, returning the set of
//! preimages (there can be several, e.g. for `x*x`), or
//! [`Error::NonInvertible`] for computations like hashes — in which case
//! DiffProv reports the attempted change as a diagnostic clue instead of a
//! fix (Section 4.7, "false negatives").
//!
//! # The environment
//!
//! [`Env`] — a set of variable bindings by name — is one flat row of
//! `(name, value)` pairs kept sorted by name and found by binary search.
//! Its callers bind a handful of variables per rule and look each up a
//! few times: the reference evaluator (`crate::reference`) and
//! DiffProv's taint and formula reasoning. The engine does not use it: a
//! rule it fires is compiled to slots (`crate::compile`).
//! The row is *sorted* because its iteration order is observable:
//! DiffProv walks the good derivation's environment to build the bad one
//! (`diffprov-core`'s `align.rs`), and the order it meets the variables in
//! must not depend on the order a join happened to bind them. Name order
//! is what the `BTreeMap` this row replaced gave, so every iteration sees
//! what it saw before.

use std::fmt;

use dp_types::{fnv64, Error, Prefix, Result, Sym, Value};

/// A variable binding environment: `(name, value)` pairs sorted by name,
/// with the map operations the workspace uses (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Env {
    row: Vec<(Sym, Value)>,
}

impl Env {
    /// An empty environment (no allocation until something is bound).
    pub fn new() -> Self {
        Env::default()
    }

    /// Where `name` is (`Ok`) or would be inserted (`Err`).
    fn find(&self, name: &Sym) -> std::result::Result<usize, usize> {
        self.row.binary_search_by(|(k, _)| k.cmp(name))
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &Sym) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.row[i].1)
    }

    /// True if `name` is bound.
    pub fn contains_key(&self, name: &Sym) -> bool {
        self.find(name).is_ok()
    }

    /// Binds `name` to `value`, returning the value it replaces. A
    /// re-bound name keeps its first key, as a map does.
    pub fn insert(&mut self, name: Sym, value: Value) -> Option<Value> {
        match self.find(&name) {
            Ok(i) => Some(std::mem::replace(&mut self.row[i].1, value)),
            Err(i) => {
                self.row.insert(i, (name, value));
                None
            }
        }
    }

    /// Unbinds `name`, returning its value.
    pub fn remove(&mut self, name: &Sym) -> Option<Value> {
        self.find(name).ok().map(|i| self.row.remove(i).1)
    }

    /// The bindings in name order.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.row.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
    }
}

impl FromIterator<(Sym, Value)> for Env {
    /// Later pairs win over earlier ones with the same name.
    fn from_iter<I: IntoIterator<Item = (Sym, Value)>>(iter: I) -> Self {
        let mut env = Env::new();
        for (k, v) in iter {
            env.insert(k, v);
        }
        env
    }
}

impl<'a> IntoIterator for &'a Env {
    type Item = (&'a Sym, &'a Value);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (Sym, Value)>, fn(&'a (Sym, Value)) -> Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.row.iter().map(|(k, v)| (k, v))
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division; inversion requires exactness)
    Div,
    /// `%`
    Mod,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Pure built-in functions callable from expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Func {
    /// `last_octet(ip) -> int` — the paper's `X & 0xFF` example.
    LastOctet,
    /// `octet(ip, k) -> int` — k-th octet, 0 = most significant.
    Octet,
    /// `prefix_contains(prefix, ip) -> bool`.
    PrefixContains,
    /// `prefix_covers(outer, inner) -> bool`.
    PrefixCovers,
    /// `make_prefix(ip, len) -> prefix`.
    MakePrefix,
    /// `prefix_len(prefix) -> int`.
    PrefixLen,
    /// `hash(v...) -> sum` — deliberately **non-invertible** (Section 4.7).
    Hash,
    /// `hmod(v, m) -> int` — `hash(v) % m`; the MapReduce shuffle partition
    /// function. Non-invertible in its first argument, invertible queries on
    /// the modulus are handled by constraint repair instead.
    HMod,
    /// `min(a, b) -> int`.
    Min,
    /// `max(a, b) -> int`.
    Max,
    /// `node_at(prefix, i) -> str` — names the i-th node of a pool (e.g.
    /// `node_at("r", 2)` is `"r2"`); used to express shuffle partitioning.
    NodeAt,
}

impl Func {
    /// Function name as written in rule text.
    pub fn name(self) -> &'static str {
        match self {
            Func::LastOctet => "last_octet",
            Func::Octet => "octet",
            Func::PrefixContains => "prefix_contains",
            Func::PrefixCovers => "prefix_covers",
            Func::MakePrefix => "make_prefix",
            Func::PrefixLen => "prefix_len",
            Func::Hash => "hash",
            Func::HMod => "hmod",
            Func::Min => "min",
            Func::Max => "max",
            Func::NodeAt => "node_at",
        }
    }

    /// Parses a function name.
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "last_octet" => Func::LastOctet,
            "octet" => Func::Octet,
            "prefix_contains" => Func::PrefixContains,
            "prefix_covers" => Func::PrefixCovers,
            "make_prefix" => Func::MakePrefix,
            "prefix_len" => Func::PrefixLen,
            "hash" => Func::Hash,
            "hmod" => Func::HMod,
            "min" => Func::Min,
            "max" => Func::Max,
            "node_at" => Func::NodeAt,
            _ => return None,
        })
    }

    /// Expected argument count.
    pub fn arity(self) -> usize {
        match self {
            Func::LastOctet | Func::PrefixLen | Func::Hash => 1,
            Func::Octet
            | Func::PrefixContains
            | Func::PrefixCovers
            | Func::MakePrefix
            | Func::HMod
            | Func::Min
            | Func::Max
            | Func::NodeAt => 2,
        }
    }
}

/// Hashes a [`Value`] deterministically (FNV-1a over its text), as
/// [`Func::Hash`] does: stable across runs and platforms, which replay
/// correctness requires.
pub fn hash_value(v: &Value) -> u64 {
    // Prefix with the type tag so e.g. Int(1) and Time(1) differ.
    let repr = format!("{}:{}", v.type_name(), v);
    fnv64(repr.as_bytes())
}

/// An expression over rule variables.
#[derive(Clone, PartialEq, Eq)]
pub enum Expr {
    /// A variable reference.
    Var(Sym),
    /// A literal.
    Const(Value),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A built-in function call.
    Call(Func, Vec<Expr>),
}

impl Expr {
    /// Shorthand for a variable.
    pub fn var(name: impl AsRef<str>) -> Expr {
        Expr::Var(Sym::new(name))
    }

    /// Shorthand for a literal.
    pub fn val(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Collects the free variables of the expression into `out`.
    pub fn vars(&self, out: &mut Vec<Sym>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Const(_) => {}
            Expr::Bin(_, l, r) => {
                l.vars(out);
                r.vars(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.vars(out);
                }
            }
        }
    }

    /// The free variables as a fresh vector.
    pub fn free_vars(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.vars(&mut out);
        out
    }

    /// Evaluates the expression under `env`.
    pub fn eval(&self, env: &Env) -> Result<Value> {
        match self {
            Expr::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| Error::Engine(format!("unbound variable {v}"))),
            Expr::Const(c) => Ok(c.clone()),
            Expr::Bin(op, l, r) => eval_bin(*op, &l.eval(env)?, &r.eval(env)?),
            Expr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(env)?);
                }
                eval_func(*f, &vals)
            }
        }
    }

    /// Solves `self(vars) == target` for the single unbound variable.
    ///
    /// `env` supplies the values of all other variables. Returns the list of
    /// candidate values for the unknown (usually one; possibly several;
    /// empty when no preimage exists). Errors with
    /// [`Error::NonInvertible`] when the computation cannot be inverted —
    /// the error message describes the attempted change, which DiffProv
    /// surfaces as a diagnostic clue.
    pub fn invert(&self, target: &Value, env: &Env) -> Result<Vec<(Sym, Value)>> {
        match self {
            Expr::Var(v) => {
                if let Some(bound) = env.get(v) {
                    // Already bound: consistent iff values agree.
                    if bound == target {
                        Ok(vec![])
                    } else {
                        Ok(Vec::new()) // no preimage: conflict
                    }
                } else {
                    Ok(vec![(*v, target.clone())])
                }
            }
            Expr::Const(c) => {
                if c == target {
                    Ok(vec![])
                } else {
                    Ok(Vec::new())
                }
            }
            Expr::Bin(op, l, r) => invert_bin(*op, l, r, target, env),
            Expr::Call(f, args) => invert_func(*f, args, target, env),
        }
    }

    /// True if every free variable is bound in `env`.
    pub fn is_closed(&self, env: &Env) -> bool {
        self.free_vars().iter().all(|v| env.contains_key(v))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
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

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A binary operator applied to two evaluated operands — one of the
/// primitive operators the engine's compiled rules share with [`Expr::eval`].
pub(crate) fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(l.as_bool()? && r.as_bool()?)),
        Or => Ok(Value::Bool(l.as_bool()? || r.as_bool()?)),
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt | Le | Gt | Ge => {
            // Ordered comparison over same-variant values.
            if std::mem::discriminant(l) != std::mem::discriminant(r) {
                return Err(Error::Type {
                    expected: l.type_name(),
                    got: r.type_name(),
                });
            }
            let ord = l.cmp(r);
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | Shl | Shr => {
            let a = l.as_int()?;
            let b = r.as_int()?;
            let out = match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                Div => {
                    if b == 0 {
                        return Err(Error::Arith("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                Mod => {
                    if b == 0 {
                        return Err(Error::Arith("modulo by zero".into()));
                    }
                    a.checked_rem(b)
                }
                BitAnd => Some(a & b),
                BitOr => Some(a | b),
                BitXor => Some(a ^ b),
                Shl => u32::try_from(b).ok().and_then(|s| a.checked_shl(s)),
                Shr => u32::try_from(b).ok().and_then(|s| a.checked_shr(s)),
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| Error::Arith(format!("overflow in {a} {} {b}", op.symbol())))
        }
    }
}

/// A built-in function applied to evaluated arguments, its arity checked
/// first — the other primitive operator shared with the compiled rules.
pub(crate) fn eval_func(f: Func, args: &[Value]) -> Result<Value> {
    if args.len() != f.arity() {
        return Err(Error::Engine(format!(
            "{} expects {} args, got {}",
            f.name(),
            f.arity(),
            args.len()
        )));
    }
    match f {
        Func::LastOctet => Ok(Value::Int(i64::from(args[0].as_ip()? & 0xff))),
        Func::Octet => {
            let ip = args[0].as_ip()?;
            let k = args[1].as_int()?;
            if !(0..=3).contains(&k) {
                return Err(Error::Arith(format!("octet index {k} out of range")));
            }
            Ok(Value::Int(i64::from((ip >> (8 * (3 - k))) & 0xff)))
        }
        Func::PrefixContains => Ok(Value::Bool(args[0].as_prefix()?.contains(args[1].as_ip()?))),
        Func::PrefixCovers => Ok(Value::Bool(args[0].as_prefix()?.covers(&args[1].as_prefix()?))),
        Func::MakePrefix => {
            let ip = args[0].as_ip()?;
            let len = args[1].as_int()?;
            let len = u8::try_from(len).map_err(|_| Error::Arith(format!("bad prefix length {len}")))?;
            Ok(Value::Prefix(Prefix::new(ip, len)?))
        }
        Func::PrefixLen => Ok(Value::Int(i64::from(args[0].as_prefix()?.len()))),
        Func::Hash => Ok(Value::Sum(hash_value(&args[0]))),
        Func::HMod => {
            let m = args[1].as_int()?;
            if m <= 0 {
                return Err(Error::Arith(format!("hmod modulus {m} must be positive")));
            }
            let h = hash_value(&args[0]);
            Ok(Value::Int((h % (m as u64)) as i64))
        }
        Func::Min => Ok(Value::Int(args[0].as_int()?.min(args[1].as_int()?))),
        Func::Max => Ok(Value::Int(args[0].as_int()?.max(args[1].as_int()?))),
        Func::NodeAt => {
            let prefix = args[0].as_str()?;
            let idx = args[1].as_int()?;
            Ok(Value::str(format!("{prefix}{idx}")))
        }
    }
}

/// Inverts `l op r == target` where exactly one side contains the unknown.
fn invert_bin(op: BinOp, l: &Expr, r: &Expr, target: &Value, env: &Env) -> Result<Vec<(Sym, Value)>> {
    use BinOp::*;
    let l_closed = l.is_closed(env);
    let r_closed = r.is_closed(env);
    if l_closed && r_closed {
        // Fully determined: consistency check.
        let got = eval_bin(op, &l.eval(env)?, &r.eval(env)?)?;
        return Ok(if &got == target { vec![] } else { Vec::new() });
    }
    if !l_closed && !r_closed {
        return Err(Error::NonInvertible(format!(
            "both sides of {} unknown in ({l} {} {r})",
            op.symbol(),
            op.symbol()
        )));
    }
    // Equality as a constraint: X == known (or known == X) binds X directly.
    if op == Eq {
        if target.as_bool()? {
            let (open, closed) = if l_closed { (r, l) } else { (l, r) };
            let known = closed.eval(env)?;
            return open.invert(&known, env);
        }
        return Err(Error::NonInvertible(format!(
            "cannot invert a disequality ({l} != {r})"
        )));
    }
    let t = target.as_int().map_err(|_| {
        Error::NonInvertible(format!(
            "cannot invert comparison ({l} {} {r}) for non-scalar target",
            op.symbol()
        ))
    })?;
    if l_closed {
        let a = l.eval(env)?.as_int()?;
        // Solve a op X == t.
        let solved: Vec<i64> = match op {
            Add => vec![t - a],
            Sub => vec![a - t],
            Mul => {
                if a == 0 {
                    return Err(Error::NonInvertible("0 * X has no unique preimage".into()));
                }
                if t % a == 0 {
                    vec![t / a]
                } else {
                    vec![]
                }
            }
            BitXor => vec![a ^ t],
            Shl | Shr | Div | Mod | BitAnd | BitOr => {
                return Err(Error::NonInvertible(format!(
                    "cannot solve {a} {} X == {t}",
                    op.symbol()
                )))
            }
            _ => {
                return Err(Error::NonInvertible(format!(
                    "cannot invert predicate {} here",
                    op.symbol()
                )))
            }
        };
        let mut out = Vec::new();
        for s in solved {
            out.extend(r.invert(&Value::Int(s), env)?);
        }
        Ok(out)
    } else {
        let b = r.eval(env)?.as_int()?;
        // Solve X op b == t.
        let solved: Vec<i64> = match op {
            Add => vec![t - b],
            Sub => vec![t + b],
            Mul => {
                if b == 0 {
                    return Err(Error::NonInvertible("X * 0 has no unique preimage".into()));
                }
                if t % b == 0 {
                    vec![t / b]
                } else {
                    vec![]
                }
            }
            Div => {
                if b == 0 {
                    return Err(Error::NonInvertible("X / 0".into()));
                }
                // Integer division: X/b == t has a range of preimages; all
                // values in [t*b, t*b + b - 1] (for positive b, t >= 0).
                // Return the canonical exact preimage t*b; the paper's rules
                // use exact divisions.
                vec![t * b]
            }
            Mod => {
                return Err(Error::NonInvertible(format!("cannot solve X % {b} == {t}")));
            }
            BitXor => vec![t ^ b],
            Shl => {
                // X << b == t  =>  X = t >> b if no bits lost.
                let shift = u32::try_from(b).map_err(|_| Error::Arith("bad shift".into()))?;
                if (t >> shift) << shift == t {
                    vec![t >> shift]
                } else {
                    vec![]
                }
            }
            Shr | BitAnd | BitOr => {
                return Err(Error::NonInvertible(format!(
                    "cannot solve X {} {b} == {t}",
                    op.symbol()
                )))
            }
            _ => {
                return Err(Error::NonInvertible(format!(
                    "cannot invert predicate {} here",
                    op.symbol()
                )))
            }
        };
        let mut out = Vec::new();
        for s in solved {
            out.extend(l.invert(&Value::Int(s), env)?);
        }
        Ok(out)
    }
}

fn invert_func(f: Func, args: &[Expr], target: &Value, env: &Env) -> Result<Vec<(Sym, Value)>> {
    match f {
        Func::Hash | Func::HMod => Err(Error::NonInvertible(format!(
            "{} is a one-way function; attempted to reach {}",
            f.name(),
            target
        ))),
        Func::MakePrefix => {
            // make_prefix(ip, len) == P  =>  ip == P.addr, len == P.len.
            let p = target.as_prefix()?;
            let mut out = args[0].invert(&Value::Ip(p.addr()), env)?;
            out.extend(args[1].invert(&Value::Int(i64::from(p.len())), env)?);
            Ok(out)
        }
        Func::PrefixLen => {
            Err(Error::NonInvertible("prefix_len does not determine the prefix".into()))
        }
        Func::LastOctet | Func::Octet => Err(Error::NonInvertible(format!(
            "{} does not determine the full address",
            f.name()
        ))),
        Func::PrefixContains | Func::PrefixCovers => Err(Error::NonInvertible(format!(
            "{} is a containment predicate; use constraint repair instead",
            f.name()
        ))),
        Func::Min | Func::Max => Err(Error::NonInvertible(format!(
            "{} has ambiguous preimages",
            f.name()
        ))),
        Func::NodeAt => {
            // node_at(prefix, i) == "prefixI" inverts on i when the prefix
            // is known.
            let name = target.as_str()?;
            let prefix = args[0].eval(env).map_err(|_| {
                Error::NonInvertible("node_at with unknown prefix".into())
            })?;
            let prefix = prefix.as_str()?.as_str().to_string();
            match name.as_str().strip_prefix(&prefix).and_then(|r| r.parse::<i64>().ok()) {
                Some(idx) => args[1].invert(&Value::Int(idx), env),
                None => Ok(Vec::new()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::prefix::{cidr, ip};

    fn env(pairs: &[(&str, Value)]) -> Env {
        pairs.iter().map(|(k, v)| (Sym::new(k), v.clone())).collect()
    }

    /// The row against the map it replaced: seeded insert/remove/re-insert
    /// sequences must leave both with the same bindings in the same
    /// iteration order, and every call must return what the map's does.
    #[test]
    fn env_is_a_name_sorted_map() {
        use std::collections::BTreeMap;
        // Two `Sym`s per name, one made from a `&str` and one from a
        // `String`: equal names are one symbol.
        let names: Vec<[Sym; 2]> = ["Z", "a", "Dst", "Prio", "S", "Src", "X", "Y", "aa", "Pt", "b", "Next"]
            .iter()
            .map(|n| [Sym::new(n), Sym::from(n.to_string())])
            .collect();
        for seed in 0..64 {
            let mut rng = dp_types::DetRng::seed_from_u64(seed);
            let (mut env, mut map) = (Env::new(), BTreeMap::<Sym, Value>::new());
            for step in 0..400 {
                let name = &names[rng.gen_range_usize(0, names.len())];
                let (key, probe) = (&name[step % 2], &name[(step + 1) % 2]);
                assert!(key == probe && key.as_str().as_ptr() == probe.as_str().as_ptr());
                match rng.gen_range_usize(0, 3) {
                    0 => {
                        let v = Value::Int(rng.gen_range_i64(0, 1_000));
                        assert_eq!(env.insert(*key, v.clone()), map.insert(*key, v));
                    }
                    1 => assert_eq!(env.remove(probe), map.remove(probe)),
                    _ => {
                        assert_eq!(env.get(probe), map.get(probe));
                        assert_eq!(env.get(key), map.get(key));
                        assert_eq!(env.contains_key(probe), map.contains_key(probe));
                    }
                }
                assert_eq!(env.len(), map.len());
                assert_eq!(env.is_empty(), map.is_empty());
                assert!(env.iter().eq(map.iter()), "seed {seed} step {step}: {env:?} vs {map:?}");
                assert!((&env).into_iter().eq(&map), "seed {seed} step {step}");
            }
            let rebuilt: Env = map.iter().rev().map(|(k, v)| (*k, v.clone())).collect();
            assert_eq!(rebuilt, env, "seed {seed}: collected in any order, sorted all the same");
        }
    }

    #[test]
    fn env_insert_returns_the_value_it_replaces() {
        let mut env = Env::new();
        assert_eq!(env.insert(Sym::new("x"), Value::Int(1)), None);
        assert_eq!(env.insert(Sym::new("x"), Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(env.len(), 1);
        assert_eq!(env.get(&Sym::new("x")), Some(&Value::Int(2)));
        assert_eq!(env.remove(&Sym::new("x")), Some(Value::Int(2)));
        assert_eq!(env.remove(&Sym::new("x")), None);
        assert!(env.is_empty() && !env.contains_key(&Sym::new("x")));
    }

    #[test]
    fn eval_arithmetic() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::val(2), Expr::var("c")),
            Expr::val(1),
        );
        let env = env(&[("c", Value::Int(3))]);
        assert_eq!(e.eval(&env).unwrap(), Value::Int(7));
    }

    #[test]
    fn eval_comparisons_and_logic() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Lt, Expr::val(1), Expr::val(2)),
            Expr::bin(BinOp::Ne, Expr::val("a"), Expr::val("b")),
        );
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn eval_division_by_zero_errors() {
        let e = Expr::bin(BinOp::Div, Expr::val(1), Expr::val(0));
        assert!(matches!(e.eval(&Env::new()), Err(Error::Arith(_))));
    }

    #[test]
    fn eval_overflow_errors() {
        let e = Expr::bin(BinOp::Mul, Expr::val(i64::MAX), Expr::val(2));
        assert!(matches!(e.eval(&Env::new()), Err(Error::Arith(_))));
    }

    #[test]
    fn eval_funcs() {
        let last = Expr::Call(Func::LastOctet, vec![Expr::val(Value::Ip(ip("1.2.3.4")))]);
        assert_eq!(last.eval(&Env::new()).unwrap(), Value::Int(4));
        let contains = Expr::Call(
            Func::PrefixContains,
            vec![
                Expr::val(cidr("4.3.2.0/24")),
                Expr::val(Value::Ip(ip("4.3.2.9"))),
            ],
        );
        assert_eq!(contains.eval(&Env::new()).unwrap(), Value::Bool(true));
        let octet = Expr::Call(Func::Octet, vec![Expr::val(Value::Ip(ip("1.2.3.4"))), Expr::val(1)]);
        assert_eq!(octet.eval(&Env::new()).unwrap(), Value::Int(2));
    }

    #[test]
    fn hash_is_deterministic_and_typed() {
        let a = hash_value(&Value::Int(1));
        let b = hash_value(&Value::Int(1));
        let c = hash_value(&Value::Time(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn invert_linear_expression() {
        // The paper's example: q = x + 2, so x = q - 2.
        let e = Expr::bin(BinOp::Add, Expr::var("x"), Expr::val(2));
        let got = e.invert(&Value::Int(8), &Env::new()).unwrap();
        assert_eq!(got, vec![(Sym::new("x"), Value::Int(6))]);
    }

    #[test]
    fn invert_affine_expression() {
        // d = 2*c + 1 from Section 4.4; target 7 gives c = 3.
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::val(2), Expr::var("c")),
            Expr::val(1),
        );
        let got = e.invert(&Value::Int(7), &Env::new()).unwrap();
        assert_eq!(got, vec![(Sym::new("c"), Value::Int(3))]);
        // Target 8 has no integral preimage.
        assert!(e.invert(&Value::Int(8), &Env::new()).unwrap().is_empty());
    }

    #[test]
    fn invert_xor_and_sub() {
        let e = Expr::bin(BinOp::BitXor, Expr::var("x"), Expr::val(0xff));
        assert_eq!(
            e.invert(&Value::Int(0x0f), &Env::new()).unwrap(),
            vec![(Sym::new("x"), Value::Int(0xf0))]
        );
        let e = Expr::bin(BinOp::Sub, Expr::val(10), Expr::var("x"));
        assert_eq!(
            e.invert(&Value::Int(3), &Env::new()).unwrap(),
            vec![(Sym::new("x"), Value::Int(7))]
        );
    }

    #[test]
    fn invert_hash_fails_with_clue() {
        let e = Expr::Call(Func::Hash, vec![Expr::var("x")]);
        let err = e.invert(&Value::Sum(42), &Env::new()).unwrap_err();
        match err {
            Error::NonInvertible(msg) => assert!(msg.contains("hash"), "{msg}"),
            other => panic!("expected NonInvertible, got {other}"),
        }
    }

    #[test]
    fn invert_make_prefix_splits_fields() {
        let e = Expr::Call(Func::MakePrefix, vec![Expr::var("a"), Expr::var("l")]);
        let got = e
            .invert(&Value::Prefix(cidr("4.3.2.0/23")), &Env::new())
            .unwrap();
        assert!(got.contains(&(Sym::new("a"), Value::Ip(ip("4.3.2.0")))));
        assert!(got.contains(&(Sym::new("l"), Value::Int(23))));
    }

    #[test]
    fn invert_bound_variable_checks_consistency() {
        let e = Expr::var("x");
        let env = env(&[("x", Value::Int(5))]);
        assert!(e.invert(&Value::Int(5), &env).unwrap().is_empty()); // consistent, nothing new
        assert!(e.invert(&Value::Int(6), &env).unwrap().is_empty()); // conflict => no preimage
    }

    #[test]
    fn invert_equality_constraint() {
        // (x == 5) inverted against `true` binds x.
        let e = Expr::bin(BinOp::Eq, Expr::var("x"), Expr::val(5));
        let got = e.invert(&Value::Bool(true), &Env::new()).unwrap();
        assert_eq!(got, vec![(Sym::new("x"), Value::Int(5))]);
    }

    #[test]
    fn display_roundtrips_reading() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::val(2), Expr::var("c")),
            Expr::val(1),
        );
        assert_eq!(e.to_string(), "((2 * c) + 1)");
    }
}
