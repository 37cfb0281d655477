//! The DiffProv algorithm (Section 4 of the paper).
//!
//! Given a "good" and a "bad" event (each identified by a located tuple and
//! a query time within its execution), [`DiffProv::diagnose`]:
//!
//! 1. replays the slice of each execution's log the two trees depend on
//!    to reconstruct provenance (Section 5, query-time approach;
//!    [`Execution::replay_slice`]) — one slice for both events when they
//!    share an execution;
//! 2. finds the seed of each tree by following the trigger chain (FINDSEED,
//!    Section 4.2);
//! 3. establishes equivalence between the seeds via taints and formulae
//!    (Section 4.3);
//! 4. walks the good tree's trigger chain upward, computing for each tuple
//!    its expected equivalent in the bad execution, until the first one
//!    that does not exist there (FIRSTDIV, Section 4.4);
//! 5. makes the missing tuple appear, guided by the good tree: recursively
//!    ensures the derivation's children exist, repairing violated
//!    constraints by inverting them against mutable base tuples
//!    (MAKEAPPEAR, Section 4.5) and accumulating `Δ_{B→G}`;
//! 6. replays the bad execution's slice once more, patched by the
//!    changes — the running system is never touched, and the slice widens
//!    when a change reaches past it (UPDATETREE, Section 4.6) — and
//!    repeats until the trees align.
//!
//! [`crate::judge`] runs the same diagnosis over the whole logs, as the
//! oracle the sliced one must equal.
//!
//! The number of steps is linear in the size of the good tree (Section
//! 4.7): the good tree tells DiffProv exactly which tuple to create and
//! how, so it never searches.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::{Constraint, Env, Expr, Func, Program, TupleChange};
use dp_trace::Tracer;
use dp_provenance::{tuple_view, ProvTree, TreeIdx, TupleTree};
use dp_replay::{Execution, Replayed};
use dp_types::{Error, LogicalTime, NodeId, Result, Tuple, TupleRef, Value};

use crate::report::{Failure, Metrics, Report, Round};
use crate::taint::{DerivationEnv, TaintState};

/// One event to be diagnosed or used as reference: a located tuple and the
/// logical time to query its provenance at.
#[derive(Clone, Debug)]
pub struct QueryEvent {
    /// The event tuple and its node.
    pub tref: TupleRef,
    /// Query time: use the execution horizon for "now", or an earlier time
    /// for a reference event in the past (scenario SDN3).
    pub at: LogicalTime,
}

impl QueryEvent {
    /// Convenience constructor.
    pub fn new(tref: TupleRef, at: LogicalTime) -> Self {
        QueryEvent { tref, at }
    }
}

/// Algorithm configuration.
#[derive(Clone, Debug)]
pub struct DiffProv {
    /// Maximum alignment rounds before giving up (SDN4 needs two; the
    /// default leaves room for deeper multi-fault chains).
    pub max_rounds: usize,
    /// Treat the good seed's node as equivalent to the bad seed's node:
    /// tuples the good tree holds there are expected on the bad node.
    /// Enable for partial-failure references ("the same service works on
    /// another node"); leave off when the event's location is part of the
    /// symptom (e.g. MR1's words landing on the wrong reducer).
    pub map_seed_nodes: bool,
    /// Tracer for the pipeline-stage spans (`diffprov.replay`,
    /// `diffprov.find_seeds`, `diffprov.detect_divergence`,
    /// `diffprov.make_appear`, `diffprov.update_tree`, `diffprov.verify`)
    /// and each diagnosis's outcome, round count, tree sizes and
    /// change-set size. When disabled (the default),
    /// [`DiffProv::diagnose`] still times itself through a private
    /// aggregate-only tracer — the [`Metrics`] breakdown is *always* read
    /// off the span aggregate.
    pub tracer: Tracer,
}

impl Default for DiffProv {
    fn default() -> Self {
        DiffProv {
            max_rounds: 8,
            map_seed_nodes: false,
            tracer: Tracer::disabled(),
        }
    }
}

/// Internal error type: algorithmic failures become part of the report;
/// engine errors propagate.
enum AlignError {
    Fail(Failure),
    Engine(Error),
}

impl From<Error> for AlignError {
    fn from(e: Error) -> Self {
        match e {
            Error::NonInvertible(msg) => AlignError::Fail(Failure::NonInvertible { attempted: msg }),
            other => AlignError::Engine(other),
        }
    }
}

type AResult<T> = std::result::Result<T, AlignError>;

/// True if both executions are one run — one program and equal logs — so
/// that one replay serves the trees of events from either: the paper's
/// batching (Section 6.6), as in the SDN scenarios, where one log holds
/// both packets. A log and its clone are one log
/// ([`dp_replay::EventLog::same`]), decided without reading their events;
/// logs built apart are compared.
pub fn same_run(good: &Execution, bad: &Execution) -> bool {
    Arc::ptr_eq(&good.program, &bad.program)
        && (good.log.same(&bad.log) || good.log.events() == bad.log.events())
}

/// How a diagnosis replays an execution for the located tuples its trees
/// must hold, queried at the earliest of the given times.
pub(crate) type Replay<'a> =
    dyn Fn(&Execution, &[(&NodeId, &Tuple)], LogicalTime) -> Result<Replayed> + 'a;

impl DiffProv {
    /// Runs the full DiffProv diagnosis.
    ///
    /// `good` and `bad` may be the same execution (SDN scenarios: one log
    /// contains both packets) or different ones (MapReduce: the reference
    /// is a separate job run). Engine-level errors return `Err`;
    /// algorithmic failures (unsuitable reference, immutable tuples,
    /// non-invertible rules) are reported in [`Report::failure`].
    ///
    /// Each execution replays the slice of its log the trees depend on
    /// ([`Execution::replay_slice`]): one slice holding both events for a
    /// shared execution; otherwise the good event's, then the bad event's
    /// widened by the owners of the good tree, where the walk looks for
    /// each tuple's bad-side equivalent. A query time before the horizon
    /// is read on the whole run's clock, which only the whole log keeps:
    /// an execution whose event is queried at one replays its whole log.
    pub fn diagnose(
        &self,
        good: &Execution,
        good_event: &QueryEvent,
        bad: &Execution,
        bad_event: &QueryEvent,
    ) -> Result<Report> {
        let sliced = |exec: &Execution, tuples: &[(&NodeId, &Tuple)], at| {
            exec.replay_slice(tuples.iter().copied(), at)
        };
        Ok(self.run(good, good_event, bad, bad_event, &sliced)?.0)
    }

    /// [`DiffProv::diagnose`] with the replays `replay` makes of an
    /// execution for the located tuples its trees must hold, returning the
    /// report and the two trees it started from.
    pub(crate) fn run(
        &self,
        good: &Execution,
        good_event: &QueryEvent,
        bad: &Execution,
        bad_event: &QueryEvent,
        replay: &Replay<'_>,
    ) -> Result<(Report, [ProvTree; 2])> {
        // All stage timing runs through a tracer: the caller's when one is
        // attached, a private aggregate-only tracer otherwise. The metrics
        // in the report are always derived from span aggregates.
        let tracer = if self.tracer.is_enabled() {
            self.tracer.clone()
        } else {
            Tracer::aggregate_only()
        };
        let agg0 = tracer.aggregate();
        let program = &bad.program;

        // Phase 1: replay the execution(s), reconstruct provenance, extract
        // the two trees. When both events come from the same execution (the
        // SDN scenarios: one log contains both packets), a single replay
        // serves both trees — the paper's batching (Section 6.6).
        let shared = same_run(good, bad);
        let (good_root, bad_root) = (&good_event.tref, &bad_event.tref);
        let roots = [(&good_root.node, &*good_root.tuple), (&bad_root.node, &*bad_root.tuple)];
        let span = tracer.span("diffprov.replay");
        let (roots, at) = if shared {
            (&roots[..], good_event.at.min(bad_event.at))
        } else {
            (&roots[..1], good_event.at)
        };
        let replayed_good = replay(good, roots, at)?;
        span.end();

        let good_tree = replayed_good
            .query_at(&good_event.tref, good_event.at)
            .ok_or_else(|| {
                Error::Engine(format!(
                    "good event {} has no provenance at t={}",
                    good_event.tref, good_event.at
                ))
            })?;
        let good_view = tuple_view(&good_tree);

        // A diagnosis holds one recording at a time. A separate reference
        // execution is done with once its tree is out: release it before
        // the bad execution's replay allocates a recording of its own.
        let mut replayed_bad = if shared {
            replayed_good
        } else {
            drop(replayed_good);
            let tuples = good_view.nodes().iter().map(|n| (&n.tref.node, &*n.tref.tuple));
            let bad_root = (&bad_root.node, &*bad_root.tuple);
            let held: Vec<_> = std::iter::once(bad_root).chain(tuples).collect();
            let span = tracer.span("diffprov.replay");
            let r = replay(bad, &held, bad_event.at)?;
            span.end();
            r
        };
        let bad_tree = replayed_bad
            .query_at(&bad_event.tref, bad_event.at)
            .ok_or_else(|| {
                Error::Engine(format!(
                    "bad event {} has no provenance at t={}",
                    bad_event.tref, bad_event.at
                ))
            })?;
        let bad_view = tuple_view(&bad_tree);

        // Phase 2: find the seeds.
        let span = tracer.span("diffprov.find_seeds");
        let good_seed_idx = good_view.seed();
        let bad_seed_idx = bad_view.seed();
        let good_seed = good_view.node(good_seed_idx).tref.clone();
        let bad_seed = bad_view.node(bad_seed_idx).tref.clone();
        span.end();

        let mut report = Report {
            delta: Vec::new(),
            rounds: Vec::new(),
            failure: None,
            verified: false,
            good_seed: Some(good_seed.clone()),
            bad_seed: Some(bad_seed.clone()),
            good_tree_size: good_tree.len(),
            bad_tree_size: bad_tree.len(),
            metrics: Metrics::default(),
        };

        // Phase 3: establish equivalence (fails on seed type mismatch).
        let mut taint = match TaintState::new(&good_view, program, good_seed_idx, &bad_seed) {
            Ok(mut t) => {
                if self.map_seed_nodes {
                    t.map_seed_nodes();
                }
                t
            }
            Err(_) => {
                report.failure = Some(Failure::SeedTypeMismatch {
                    good: Tuple::clone(&good_seed.tuple),
                    bad: Tuple::clone(&bad_seed.tuple),
                });
                report.metrics = Metrics::from_aggregate_delta(&agg0, &tracer.aggregate());
                self.publish(&report);
                return Ok((report, [good_tree, bad_tree]));
            }
        };

        // Pure insertions are injected just before the bad seed's first
        // event, "shortly before they are needed" (Section 4.8).
        let seed_due = replayed_bad.first_due(bad, &bad_seed.node, &bad_seed.tuple);
        let inject_at = seed_due.saturating_sub(1);
        let mut delta: Vec<TupleChange> = Vec::new();
        let mut promised: BTreeSet<TupleRef> = BTreeSet::new();
        let chain = good_view.trigger_chain();

        // Phases 4–6: align, round by round.
        let mut outcome: std::result::Result<(), Failure> = Ok(());
        for _round in 0..self.max_rounds {
            let span = tracer.span("diffprov.detect_divergence");
            let mut divergence: Option<(TreeIdx, TupleRef)> = None;
            let mut walk_result: AResult<()> = Ok(());
            for &idx in &chain {
                match taint.expected_tref(idx) {
                    Ok(exp) => {
                        let present = replayed_bad.exists_in(bad, &exp.node, &exp.tuple);
                        if !present && !promised.contains(&exp) {
                            divergence = Some((idx, exp));
                            break;
                        }
                    }
                    Err(e) => {
                        walk_result = Err(e.into());
                        break;
                    }
                }
            }
            span.end();
            if let Err(e) = walk_result {
                match e {
                    AlignError::Fail(f) => {
                        outcome = Err(f);
                        break;
                    }
                    AlignError::Engine(err) => return Err(err),
                }
            }

            let Some((div_idx, div_exp)) = divergence else {
                // No divergence: the trees are aligned.
                outcome = Ok(());
                break;
            };

            let before_len = delta.len();
            let span = tracer.span("diffprov.make_appear");
            let ma = {
                let mut ctx = AlignCtx {
                    view: &good_view,
                    program,
                    bad,
                    replayed_bad: &mut replayed_bad,
                    tracer: &tracer,
                    taint: &mut taint,
                    delta: &mut delta,
                    promised: &mut promised,
                };
                ctx.make_appear(div_idx)
            };
            span.end();
            match ma {
                Ok(()) => {}
                Err(AlignError::Fail(f)) => {
                    outcome = Err(f);
                    break;
                }
                Err(AlignError::Engine(err)) => return Err(err),
            }
            let new_changes: Vec<TupleChange> = delta[before_len..].to_vec();
            if new_changes.is_empty() {
                outcome = Err(Failure::NoProgress { stuck_on: div_exp });
                break;
            }
            report.rounds.push(Round {
                divergence: div_exp,
                changes: new_changes,
            });

            // UPDATETREE: replay the held slice (or log) patched by the
            // accumulated changes, widening the slice where they reach
            // past it.
            let span = tracer.span("diffprov.update_tree");
            replayed_bad.update_tree(bad, &delta, inject_at)?;
            span.end();
            promised.clear();

            if report.rounds.len() >= self.max_rounds {
                outcome = Err(Failure::RoundLimit {
                    limit: self.max_rounds,
                });
                break;
            }
        }

        match outcome {
            Ok(()) => {
                report.delta = delta;
                // Final verification: extract the provenance of the
                // transformed bad event from the updated execution and
                // check it is structurally equivalent to the good tree
                // (same tables, same rules, same derivation shape) with
                // the bad seed preserved. Field values legitimately differ
                // wherever taints or repairs apply, so the check is
                // structural (Definition 1's "equivalence").
                let span = tracer.span("diffprov.verify");
                report.verified = (|| {
                    let root_exp = taint.expected_tref(TupleTree::ROOT).ok()?;
                    let new_tree = replayed_bad.query(&root_exp)?;
                    let new_view = tuple_view(&new_tree);
                    // Seed preservation (Definition 1): the transformed bad
                    // tree must still spring from the bad stimulus. Tuple
                    // content is compared; the node may legitimately differ
                    // when the aligned event moved (e.g. a MapReduce pair
                    // now shuffled to the reference's reducer).
                    if new_view.node(new_view.seed()).tref.tuple != bad_seed.tuple {
                        return None;
                    }
                    structurally_equivalent(&good_view, TupleTree::ROOT, &new_view, TupleTree::ROOT)
                        .then_some(())
                })()
                .is_some();
                span.end();
            }
            Err(f) => {
                report.delta = delta;
                report.failure = Some(f);
            }
        }
        report.metrics = Metrics::from_aggregate_delta(&agg0, &tracer.aggregate());
        self.publish(&report);
        Ok((report, [good_tree, bad_tree]))
    }
}

impl DiffProv {
    /// Publishes one finished diagnosis on the caller's tracer: outcome,
    /// rounds, tree sizes and change-set size. (Phase times need no
    /// publishing — they are the `diffprov.*` span histograms the report's
    /// own breakdown is read from.) Nothing is published to the private
    /// tracer an uninstrumented diagnosis times itself with.
    fn publish(&self, report: &Report) {
        let outcome = if report.failure.is_some() {
            "diffprov.diagnoses{outcome=failed}"
        } else if report.verified {
            "diffprov.diagnoses{outcome=verified}"
        } else {
            "diffprov.diagnoses{outcome=unverified}"
        };
        self.tracer.counter(outcome, 1);
        self.tracer.counter("diffprov.rounds", report.rounds.len() as u64);
        self.tracer.update(|agg| {
            agg.observe_size("diffprov.tree_vertices{side=good}", report.good_tree_size as u64);
            agg.observe_size("diffprov.tree_vertices{side=bad}", report.bad_tree_size as u64);
            agg.observe_size("diffprov.delta_changes", report.delta.len() as u64);
        });
    }
}

/// Mutable context threaded through MAKEAPPEAR.
struct AlignCtx<'a, 'v> {
    view: &'a TupleTree,
    program: &'a Program,
    bad: &'a Execution,
    replayed_bad: &'a mut Replayed,
    tracer: &'a Tracer,
    taint: &'a mut TaintState<'v>,
    delta: &'a mut Vec<TupleChange>,
    promised: &'a mut BTreeSet<TupleRef>,
}

impl<'a, 'v> AlignCtx<'a, 'v> {
    /// MAKEAPPEAR (Section 4.5): ensure the expected equivalent of good
    /// occurrence `idx` exists in the (virtual) bad execution, adding
    /// mutable base-tuple changes to `Δ_{B→G}` as needed.
    fn make_appear(&mut self, idx: TreeIdx) -> AResult<()> {
        if self.taint.is_seed_like(idx) {
            // The seed is preserved by definition; it exists in the bad
            // execution because the bad tree sprang from it.
            return Ok(());
        }
        let exp = self.taint.expected_tref(idx)?;
        self.make_appear_as(idx, exp)
    }

    /// Ensure `exp` (the — possibly constraint-repaired — expected
    /// equivalent of good occurrence `idx`) exists.
    fn make_appear_as(&mut self, idx: TreeIdx, exp: TupleRef) -> AResult<()> {
        if self.taint.is_seed_like(idx) {
            if exp.tuple != *self.taint.bad_seed() {
                return Err(AlignError::Fail(Failure::ImmutableChange {
                    needed: exp,
                    context: "the required tuple is the stimulus itself (the seed), which \
                              must be preserved"
                        .into(),
                }));
            }
            return Ok(());
        }
        if self.replayed_bad.exists_in(self.bad, &exp.node, &exp.tuple)
            || self.promised.contains(&exp)
        {
            return Ok(());
        }
        let occ = self.view.node(idx).clone();
        match &occ.rule {
            None => self.change_base(&exp, &occ.tref),
            Some(rule_name) => match self.program.rule(rule_name).filter(|r| r.agg.is_none()) {
                None => {
                    // Native or aggregation rule: no declarative structure
                    // to repair (children are contributors); the good tree
                    // still guides which children must exist.
                    if exp.tuple != self.taint.expected_tuple(idx)? {
                        return Err(AlignError::Fail(Failure::NonInvertible {
                            attempted: format!(
                                "constraint repair required adjusting {} which is derived \
                                 by native rule {rule_name}",
                                exp
                            ),
                        }));
                    }
                    for &c in &occ.children {
                        self.make_appear(c)?;
                    }
                    Ok(())
                }
                Some(rule) => {
                    let rule = rule.clone();
                    self.make_appear_derived(idx, exp, &rule)
                }
            },
        }
    }

    /// MAKEAPPEAR for a declaratively derived tuple: reconcile the required
    /// head `exp` with the derivation's environment (inverting head
    /// expressions and assignments where the requirement deviates from the
    /// taint-predicted value — Section 4.5's downward PROPTAINT with
    /// inversion), compute the required children through the body patterns,
    /// repair violated constraints, and recurse.
    fn make_appear_derived(
        &mut self,
        idx: TreeIdx,
        exp: TupleRef,
        rule: &dp_ndlog::Rule,
    ) -> AResult<()> {
        let occ = self.view.node(idx).clone();
        let denv = self.taint.derivation_env(idx)?;

        // Bad-side variable environment from the taint formulae.
        let mut bad_env = Env::new();
        for (var, good_val) in &denv.good_env {
            let v = match denv.var_formulas.get(var) {
                Some(f) => f.apply(self.taint.bad_seed()).map_err(AlignError::from)?,
                None => good_val.clone(),
            };
            bad_env.insert(*var, v);
        }
        // Under node equivalence, the body location variable follows the
        // seed's node mapping.
        if let Some(atom0) = rule.body.first() {
            if let Some(Value::Str(loc)) = bad_env.get(&atom0.loc).cloned() {
                let mapped = self.taint.map_node(&NodeId(loc));
                bad_env.insert(atom0.loc, Value::Str(mapped.0));
            }
        }

        // Unify the rule head with the required tuple, overriding variables
        // where the requirement deviates (e.g. a constraint repair decided
        // a derived flow entry needs a wider prefix: the prefix variable is
        // overridden here and pushed down into the config tuple below).
        let head_loc_target = Value::Str(exp.node.0);
        let mut targets: Vec<(&Expr, Value)> = vec![(&rule.head.loc, head_loc_target)];
        for (k, head_arg) in rule.head.args.iter().enumerate() {
            let target = exp.tuple.args.get(k).cloned().ok_or_else(|| {
                AlignError::Engine(Error::Engine(format!(
                    "required tuple {} does not match the arity of rule {}",
                    exp, rule.name
                )))
            })?;
            targets.push((head_arg, target));
        }
        let tainted: BTreeSet<_> = denv.var_formulas.keys().copied().collect();
        for (expr, target) in targets {
            self.unify_expr(expr, &target, &mut bad_env, rule, &tainted)?;
        }
        // Push overrides down through assignments (reverse order), then
        // re-run them forward to normalize.
        for a in rule.assigns.iter().rev() {
            let current = bad_env.get(&a.var).cloned();
            let computed = a.expr.eval(&bad_env).ok();
            if let (Some(cur), Some(comp)) = (&current, &computed) {
                if cur != comp {
                    let target = cur.clone();
                    self.unify_expr(&a.expr, &target, &mut bad_env, rule, &tainted)?;
                }
            }
        }
        for a in &rule.assigns {
            if let Ok(v) = a.expr.eval(&bad_env) {
                bad_env.insert(a.var, v);
            }
        }
        // Consistency: the head must now evaluate to the requirement.
        for (k, head_arg) in rule.head.args.iter().enumerate() {
            let v = head_arg.eval(&bad_env).map_err(AlignError::from)?;
            if Some(&v) != exp.tuple.args.get(k) {
                return Err(AlignError::Fail(Failure::NonInvertible {
                    attempted: format!(
                        "could not push required value {} through head expression {} of \
                         rule {}",
                        exp.tuple.args.get(k).map(|v| v.to_string()).unwrap_or_default(),
                        head_arg,
                        rule.name
                    ),
                }));
            }
        }

        // Required children via the body patterns under the (possibly
        // overridden) bad environment.
        let mut expected_children: Vec<TupleRef> = Vec::with_capacity(occ.children.len());
        for (&child_idx, atom) in occ.children.iter().zip(&rule.body) {
            if self.taint.is_seed_like(child_idx) {
                let seed_node = self.taint.expected_node(child_idx);
                // The stimulus is immutable — including *where* it entered
                // the system. If this derivation needs it on a different
                // node (the reference packet entered at another ingress
                // switch), there is no valid solution (Section 4.7).
                let required = bad_env
                    .get(&atom.loc)
                    .and_then(|v| v.as_str().ok().copied())
                    .map(NodeId);
                if let Some(req) = required {
                    if req != seed_node {
                        return Err(AlignError::Fail(Failure::ImmutableChange {
                            needed: TupleRef {
                                node: req,
                                tuple: self.taint.bad_seed().clone().into(),
                            },
                            context: format!(
                                "the stimulus entered at {seed_node}, but aligning with \
                                 the reference requires it to enter at {req}"
                            ),
                        }));
                    }
                }
                expected_children.push(TupleRef {
                    node: seed_node,
                    tuple: self.taint.bad_seed().clone().into(),
                });
                continue;
            }
            let child = self.view.node(child_idx).clone();
            let mut args = Vec::with_capacity(atom.args.len());
            for (p, pat) in atom.args.iter().enumerate() {
                let good_value = child.tref.tuple.args.get(p).cloned().ok_or_else(|| {
                    AlignError::Engine(Error::Engine(format!(
                        "arity mismatch in {}",
                        child.tref
                    )))
                })?;
                let v = match pat {
                    dp_ndlog::Pattern::Const(c) => c.clone(),
                    dp_ndlog::Pattern::Wildcard => good_value,
                    dp_ndlog::Pattern::Var(x) => {
                        bad_env.get(x).cloned().unwrap_or(good_value)
                    }
                };
                args.push(v);
            }
            // The body node: bound by the location variable, which the
            // head-location unification may have overridden.
            let body_node = bad_env
                .get(&atom.loc)
                .and_then(|v| v.as_str().ok().copied())
                .map(NodeId)
                .unwrap_or_else(|| child.tref.node);
            expected_children.push(TupleRef {
                node: body_node,
                tuple: Tuple::new(child.tref.tuple.table, args).into(),
            });
        }
        // All body atoms live on one node; if the expectations disagree
        // (e.g. the bad packet entered at a different ingress), there is no
        // valid derivation.
        if let Some(first) = expected_children.first() {
            let body_node = first.node;
            for ec in &expected_children {
                if ec.node != body_node {
                    return Err(AlignError::Fail(Failure::ImmutableChange {
                        needed: ec.clone(),
                        context: format!(
                            "rule {} joins tuples on one node, but the expected inputs \
                             live on {} and {}",
                            rule.name, body_node, ec.node
                        ),
                    }));
                }
            }
        }
        self.repair_constraints(rule, &denv, &mut bad_env, &mut expected_children)?;
        for (j, &c) in occ.children.iter().enumerate() {
            self.make_appear_as(c, expected_children[j].clone())?;
        }
        Ok(())
    }

    /// Makes `expr` evaluate to `target` under `bad_env`, overriding one
    /// variable if necessary. Untainted variables are tried first: tainted
    /// ones are determined by the (preserved) seed, so overriding them is a
    /// last resort.
    fn unify_expr(
        &self,
        expr: &Expr,
        target: &Value,
        bad_env: &mut Env,
        rule: &dp_ndlog::Rule,
        tainted: &BTreeSet<dp_types::Sym>,
    ) -> AResult<()> {
        if let Ok(v) = expr.eval(bad_env) {
            if &v == target {
                return Ok(());
            }
        }
        let mut vars = expr.free_vars();
        vars.sort_by_key(|v| tainted.contains(v));
        let mut last_non_invertible: Option<String> = None;
        for x in &vars {
            let mut env2 = bad_env.clone();
            env2.remove(x);
            match expr.invert(target, &env2) {
                Ok(cands) => {
                    if let Some((var, val)) = cands.into_iter().next() {
                        if &var == x {
                            bad_env.insert(var, val);
                            return Ok(());
                        }
                    }
                }
                Err(Error::NonInvertible(msg)) => {
                    last_non_invertible = Some(msg);
                }
                Err(other) => return Err(AlignError::Engine(other)),
            }
        }
        Err(AlignError::Fail(Failure::NonInvertible {
            attempted: last_non_invertible.unwrap_or_else(|| {
                format!(
                    "could not make {expr} evaluate to {target} in rule {} by adjusting \
                     any single variable",
                    rule.name
                )
            }),
        }))
    }

    /// Adds a change creating `exp` (a base tuple) to the change set.
    fn change_base(&mut self, exp: &TupleRef, good_occ: &TupleRef) -> AResult<()> {
        if !self.program.schemas.is_mutable(&exp.tuple.table) {
            return Err(AlignError::Fail(Failure::ImmutableChange {
                needed: exp.clone(),
                context: format!(
                    "corresponds to {} in the good tree; its table is immutable",
                    good_occ
                ),
            }));
        }
        let before = self.find_by_key(exp);
        self.delta.push(TupleChange {
            node: exp.node,
            before,
            after: Some(Tuple::clone(&exp.tuple)),
        });
        self.promised.insert(exp.clone());
        Ok(())
    }

    /// Finds the tuple in the bad execution that `exp` replaces: the first
    /// live tuple, in tuple order, of the same table on the same node
    /// sharing `exp`'s primary key. Tables without a declared key fall
    /// back to the singleton heuristic: if exactly one live tuple of the
    /// table exists on the node, it is the one being replaced
    /// (configuration cells). The live tuples are the whole log's, looked
    /// up by key ([`Replayed::base_tuples_by_key`]): a slice holds a table
    /// owned by a column only in part. How many rows each lookup held is
    /// the size histogram `diffprov.replaced_tuples`.
    fn find_by_key(&self, exp: &TupleRef) -> Option<Tuple> {
        let key = self.program.schemas.get(&exp.tuple.table)?.key.as_deref();
        let live = self.replayed_bad.base_tuples_by_key(self.bad, &exp.node, &exp.tuple);
        self.tracer
            .update(|agg| agg.observe_size("diffprov.replaced_tuples", live.len() as u64));
        let mut others = live.iter().map(|t| &**t).filter(|t| **t != *exp.tuple);
        match key {
            Some(_) => others.next().cloned(),
            None => {
                let first = others.next()?;
                if others.next().is_none() {
                    Some(first.clone())
                } else {
                    None
                }
            }
        }
    }

    /// Evaluates the rule's constraints under the bad-side environment,
    /// repairing violations by adjusting mutable base children or by
    /// invoking a stateful builtin's repair hook.
    fn repair_constraints(
        &mut self,
        rule: &dp_ndlog::Rule,
        denv: &DerivationEnv,
        bad_env: &mut Env,
        expected_children: &mut [TupleRef],
    ) -> AResult<()> {
        for c in &rule.constraints {
            match c {
                Constraint::Expr(e) => {
                    let holds = matches!(e.eval(bad_env), Ok(Value::Bool(true)));
                    if holds {
                        continue;
                    }
                    self.repair_expr(rule, e, denv, bad_env, expected_children)?;
                    // Repairs can feed assignments used by later
                    // constraints; recompute them.
                    for a in &rule.assigns {
                        if let Ok(v) = a.expr.eval(bad_env) {
                            bad_env.insert(a.var, v);
                        }
                    }
                }
                Constraint::Builtin { name, args } => {
                    let builtin = self.program.builtin(name).map_err(AlignError::Engine)?;
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(a.eval(bad_env).map_err(AlignError::from)?);
                    }
                    let node = expected_children
                        .first()
                        .map(|c| c.node)
                        .unwrap_or_else(|| NodeId::new("?"));
                    // The builtin reads the bad slice's state; when what it
                    // read lies outside the slice, the slice widens and the
                    // builtin is asked again.
                    let (holds, repairs) = loop {
                        let (holds, repairs) = match self.replayed_bad.engine.view(&node) {
                            Some(view) => {
                                let holds = builtin.eval(&view, &vals)?;
                                let repairs = match holds {
                                    true => Vec::new(),
                                    false => builtin.repair(&view, &vals)?,
                                };
                                (holds, repairs)
                            }
                            // No state on that node: nothing conflicts.
                            None => (true, Vec::new()),
                        };
                        if !self.replayed_bad.widen(self.bad)? {
                            break (holds, repairs);
                        }
                    };
                    if holds {
                        continue;
                    }
                    if repairs.is_empty() {
                        return Err(AlignError::Fail(Failure::NonInvertible {
                            attempted: format!(
                                "stateful constraint {name}!({}) is violated in the bad \
                                 execution and offers no repair",
                                vals.iter()
                                    .map(|v| v.to_string())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        }));
                    }
                    for r in repairs {
                        // A repair may target an immutable table; that is a
                        // hard failure, mirroring change_base.
                        if let Some(after) = &r.after {
                            if !self.program.schemas.is_mutable(&after.table) {
                                return Err(AlignError::Fail(Failure::ImmutableChange {
                                    needed: TupleRef::new(r.node, after.clone()),
                                    context: format!("proposed by builtin {name} repair"),
                                }));
                            }
                        }
                        if !self.delta.contains(&r) {
                            if let Some(after) = &r.after {
                                self.promised
                                    .insert(TupleRef::new(r.node, after.clone()));
                            }
                            self.delta.push(r);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Repairs one violated pure-expression constraint by adjusting a
    /// variable that was bound from a mutable base child.
    fn repair_expr(
        &mut self,
        rule: &dp_ndlog::Rule,
        e: &Expr,
        denv: &DerivationEnv,
        bad_env: &mut Env,
        expected_children: &mut [TupleRef],
    ) -> AResult<()> {
        // Special case with domain-specific minimal repair: prefix
        // containment. Widening the good prefix to also cover the bad
        // address reproduces the paper's flagship fix (4.3.2.0/24 →
        // 4.3.2.0/23).
        if let Expr::Call(Func::PrefixContains, args) = e {
            if let Expr::Var(pvar) = &args[0] {
                if let Some(src) = denv.var_sources.get(pvar) {
                    if self.child_is_adjustable(rule, src.atom) {
                        let ip = args[1].eval(bad_env).map_err(AlignError::from)?;
                        let ip = ip.as_ip().map_err(AlignError::from)?;
                        let cur = bad_env
                            .get(pvar)
                            .cloned()
                            .ok_or_else(|| AlignError::Engine(Error::Engine(format!(
                                "unbound prefix variable {pvar}"
                            ))))?;
                        let cur = cur.as_prefix().map_err(AlignError::from)?;
                        let widened = Value::Prefix(cur.widen_to_contain(ip));
                        bad_env.insert(*pvar, widened.clone());
                        Arc::make_mut(&mut expected_children[src.atom].tuple).args[src.field] =
                            widened;
                        return Ok(());
                    }
                }
            }
            return Err(AlignError::Fail(Failure::NonInvertible {
                attempted: format!(
                    "constraint {e} is violated, but its prefix comes from an immutable \
                     tuple"
                ),
            }));
        }

        // Generic path: pick the first variable sourced from an adjustable
        // child (mutable base, or derived — in which case the requirement
        // is pushed down recursively), treat it as the unknown, and invert
        // the constraint.
        let mut vars = Vec::new();
        e.vars(&mut vars);
        for x in &vars {
            let Some(src) = denv.var_sources.get(x) else { continue };
            if !self.child_is_adjustable(rule, src.atom) {
                continue;
            }
            let mut env2 = bad_env.clone();
            env2.remove(x);
            match e.invert(&Value::Bool(true), &env2) {
                Ok(cands) => {
                    if let Some((var, val)) = cands.into_iter().next() {
                        if &var == x {
                            bad_env.insert(var, val.clone());
                            Arc::make_mut(&mut expected_children[src.atom].tuple).args
                                [src.field] = val;
                            return Ok(());
                        }
                    }
                }
                Err(Error::NonInvertible(_)) => continue,
                Err(other) => return Err(AlignError::Engine(other)),
            }
        }
        Err(AlignError::Fail(Failure::NonInvertible {
            attempted: format!(
                "constraint {e} of rule {} is violated in the bad execution and no \
                 mutable base tuple can be adjusted to satisfy it",
                rule.name
            ),
        }))
    }

    /// A repair may adjust a child that is a mutable base tuple (the
    /// change lands in `Δ` directly) or a derived tuple (the requirement is
    /// pushed down through its own derivation). Immutable base tuples are
    /// off limits (Refinement #1, Section 3.3).
    fn child_is_adjustable(&self, rule: &dp_ndlog::Rule, atom: usize) -> bool {
        rule.body
            .get(atom)
            .and_then(|a| self.program.schemas.get(&a.table))
            .map(|s| s.kind != dp_types::TableKind::ImmutableBase)
            .unwrap_or(false)
    }
}

/// Structural equivalence of two tuple trees: same tables, same rules,
/// same derivation shape. Field values are allowed to differ — they do so
/// legitimately wherever taints apply (packet ids, addresses) and wherever
/// `Δ` repaired a tuple (e.g. a widened prefix).
fn structurally_equivalent(a: &TupleTree, ai: TreeIdx, b: &TupleTree, bi: TreeIdx) -> bool {
    let na = a.node(ai);
    let nb = b.node(bi);
    if na.tref.tuple.table != nb.tref.tuple.table
        || na.rule != nb.rule
        || na.children.len() != nb.children.len()
    {
        return false;
    }
    na.children
        .iter()
        .zip(&nb.children)
        .all(|(&ca, &cb)| structurally_equivalent(a, ca, b, cb))
}
