//! Slot-indexed join plans: the incremental engine's rule evaluator.
//!
//! Every rule is compiled once, when the engine builds its maintenance
//! plans, into a [`RulePlan`]: one [`JoinPlan`] per delta position (the
//! telescoped delta rules of counting, z-set and DRed maintenance), one
//! with the head pre-bound from a ground tuple (rederivation, z-set
//! verification, group-restricted aggregates, `explain`), and one with
//! nothing bound (full aggregate recompute).  Compiling fixes everything
//! the former name-keyed interpreter re-derived per candidate tuple:
//!
//! * **Slots.**  Each variable of the rule is a dense slot number.  Which
//!   slots are bound at each step is known, so an atom step carries its
//!   probe columns, the source of each key value (a constant or a slot),
//!   and a list of "bind slot from column" / "check column equals slot"
//!   actions for the rest.
//! * **Views.**  Whether a step reads the store before or after the delta
//!   position is fixed per step ([`Side`]); the caller supplies the
//!   adjustment map of each side ([`Views`]).
//! * **Borrowed bindings.**  Slots hold `Cow<'_, Value>`: a value bound
//!   from a stored tuple borrows it, so binding a path vector copies
//!   nothing, and builtins read their arguments in place.  Only computed
//!   values (`C=C1+C2`, `P=f_concatPath(S,P2)`) are owned.
//! * **Filter placement.**  A comparison moves ahead of an assignment to a
//!   fresh variable when that cannot change which commit errors: the
//!   comparison must not read the assigned variable, and every input the
//!   assignment fails on must make the comparison fail too.
//!   `f_inPath(P2,S)=false` therefore runs before `P=f_concatPath(S,P2)`
//!   (both fail exactly on a non-list `P2`, and the filter drops cyclic
//!   candidates before their path is built), but stays after `C=C1+C2`,
//!   which fails on a non-integer cost the filter would otherwise hide.
//!   Each candidate still errors, is dropped, or fires exactly as in body
//!   order, so firings and their order are unchanged.
//!
//! The from-scratch evaluator (`crate::eval`) stays an independent
//! interpreter of the same semantics — the oracle these plans are tested
//! against.

use crate::ast::{AggFunc, Atom, BinOp, CmpOp, Expr, HeadArg, Literal, Rule, Term};
use crate::builtins::Builtin;
use crate::error::{NdlogError, Result};
use crate::storage::{RelationStorage, SignedDeltas};
use crate::symbols::{RelId, Symbols};
use crate::value::{SharedTuple, Tuple, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Placeholder held by slots not bound yet; plans never read it.
static UNBOUND: Value = Value::Bool(false);

/// Variable bindings of one candidate firing, indexed by slot.
pub(crate) type Slots<'a> = [Cow<'a, Value>];

/// Receives each complete firing with its sign; `Ok(false)` stops the run.
pub(crate) type Sink<'s, 'a> = dyn FnMut(&Slots<'a>, i64) -> Result<bool> + 's;

/// Where a value comes from at run time.
#[derive(Debug, Clone)]
pub(crate) enum Src {
    /// A constant of the rule.
    Const(Value),
    /// A bound variable.
    Slot(usize),
}

impl Src {
    /// The value under the current bindings.
    pub(crate) fn get<'s>(&'s self, slots: &'s Slots<'_>) -> &'s Value {
        match self {
            Src::Const(v) => v,
            Src::Slot(s) => &slots[*s],
        }
    }
}

/// Fill `out` with the values of `srcs`.
fn fill(out: &mut Vec<Value>, srcs: &[Src], slots: &Slots<'_>) {
    out.clear();
    out.extend(srcs.iter().map(|s| s.get(slots).clone()));
}

/// The ground tuple `srcs` describe under `slots`.
pub(crate) fn ground(srcs: &[Src], slots: &Slots<'_>) -> Tuple {
    srcs.iter().map(|s| s.get(slots).clone()).collect()
}

/// One column action of an atom match.
#[derive(Debug, Clone)]
enum ColOp {
    /// Bind the slot to the column's value.
    Bind(usize, usize),
    /// The column must equal the (already bound) slot.
    Eq(usize, usize),
    /// The column must equal the constant.
    Const(usize, Value),
}

/// Matches a tuple against an atom: the arity plus the column actions the
/// step's probe key does not already guarantee.
#[derive(Debug, Clone)]
pub(crate) struct AtomMatch {
    arity: usize,
    ops: Vec<ColOp>,
}

impl AtomMatch {
    /// Apply the actions to `t`, binding slots; false when `t` does not
    /// match (the slots the failed match bound are rebound before any
    /// later step reads them).
    pub(crate) fn apply<'a>(&self, t: &'a [Value], slots: &mut [Cow<'a, Value>]) -> bool {
        if t.len() != self.arity {
            return false;
        }
        for op in &self.ops {
            match op {
                ColOp::Bind(c, s) => slots[*s] = Cow::Borrowed(&t[*c]),
                ColOp::Eq(c, s) => {
                    if t[*c] != *slots[*s] {
                        return false;
                    }
                }
                ColOp::Const(c, v) => {
                    if t[*c] != *v {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A compiled expression.
#[derive(Debug, Clone)]
enum CExpr {
    Slot(usize),
    Const(Value),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Call(Builtin, Vec<CExpr>),
    /// A call to a function no builtin answers to: fails when evaluated,
    /// as the interpreter does (safety analysis rejects such programs).
    Unknown(String, Vec<CExpr>),
}

impl CExpr {
    fn eval<'s>(&'s self, slots: &'s Slots<'_>) -> Result<Cow<'s, Value>> {
        Ok(match self {
            CExpr::Slot(s) => Cow::Borrowed(&*slots[*s]),
            CExpr::Const(v) => Cow::Borrowed(v),
            CExpr::Bin(op, a, b) => {
                let (va, vb) = (a.eval(slots)?, b.eval(slots)?);
                Cow::Owned(arith(*op, &va, &vb)?)
            }
            CExpr::Call(f, args) => Cow::Owned(match args.as_slice() {
                [a] => f.call(&[a.eval(slots)?])?,
                [a, b] => f.call(&[a.eval(slots)?, b.eval(slots)?])?,
                _ => f.call(&Self::eval_all(args, slots)?)?,
            }),
            CExpr::Unknown(name, args) => {
                Self::eval_all(args, slots)?;
                return Err(NdlogError::Eval {
                    msg: format!("unknown builtin function '{name}'"),
                });
            }
        })
    }

    fn eval_all<'s>(args: &'s [CExpr], slots: &'s Slots<'_>) -> Result<Vec<Cow<'s, Value>>> {
        args.iter().map(|a| a.eval(slots)).collect()
    }

    /// Every slot `self` reads.
    fn reads(&self, out: &mut BTreeSet<usize>) {
        match self {
            CExpr::Slot(s) => {
                out.insert(*s);
            }
            CExpr::Const(_) => {}
            CExpr::Bin(_, a, b) => {
                a.reads(out);
                b.reads(out);
            }
            CExpr::Call(_, args) | CExpr::Unknown(_, args) => {
                args.iter().for_each(|a| a.reads(out))
            }
        }
    }

    /// Slots that make `self` fail when they hold a non-list: the list
    /// arguments of every call it makes (evaluation reaches every call,
    /// and any failing call fails the whole expression).
    fn fails_on_non_list(&self, out: &mut BTreeSet<usize>) {
        match self {
            CExpr::Slot(_) | CExpr::Const(_) => {}
            CExpr::Bin(_, a, b) => {
                a.fails_on_non_list(out);
                b.fails_on_non_list(out);
            }
            CExpr::Call(f, args) => {
                if args.len() == f.arity() {
                    for &i in f.list_args() {
                        if let CExpr::Slot(s) = args[i] {
                            out.insert(s);
                        }
                    }
                }
                args.iter().for_each(|a| a.fails_on_non_list(out));
            }
            CExpr::Unknown(_, args) => args.iter().for_each(|a| a.fails_on_non_list(out)),
        }
    }

    /// `Some(slots)` when `self` can fail only because one of `slots`
    /// holds a non-list; `None` when it can fail any other way.
    fn fails_only_on_non_list(&self) -> Option<BTreeSet<usize>> {
        match self {
            CExpr::Slot(_) | CExpr::Const(_) => Some(BTreeSet::new()),
            CExpr::Call(f, args) if args.len() == f.arity() && f.fails_only_on_non_lists() => {
                let mut out = BTreeSet::new();
                for (i, a) in args.iter().enumerate() {
                    match a {
                        CExpr::Slot(s) if f.list_args().contains(&i) => {
                            out.insert(*s);
                        }
                        CExpr::Slot(_) => {}
                        CExpr::Const(v) if !f.list_args().contains(&i) || v.as_list().is_some() => {
                        }
                        _ => return None,
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }
}

/// Integer arithmetic with the interpreter's error messages.
fn arith(op: BinOp, va: &Value, vb: &Value) -> Result<Value> {
    let (Some(ia), Some(ib)) = (va.as_int(), vb.as_int()) else {
        return Err(NdlogError::Eval {
            msg: format!("arithmetic on non-integers: {va} {op} {vb}"),
        });
    };
    let r = match op {
        BinOp::Add => ia.checked_add(ib),
        BinOp::Sub => ia.checked_sub(ib),
        BinOp::Mul => ia.checked_mul(ib),
        BinOp::Div => {
            if ib == 0 {
                return Err(NdlogError::Eval {
                    msg: "division by zero".into(),
                });
            }
            ia.checked_div(ib)
        }
    };
    r.map(Value::Int).ok_or(NdlogError::Eval {
        msg: "integer overflow".into(),
    })
}

/// Which side of the delta position a step reads: the telescoped delta
/// rule reads the new view before it and the old view after it.  Plans
/// without a delta position read [`Side::Before`] throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Before,
    After,
}

/// One step of a plan.
#[derive(Debug, Clone)]
enum Step {
    /// The positive atom at the delta position: iterate the delta map.
    Delta(AtomMatch),
    /// A positive atom: probe the store on the bound columns.
    Probe {
        rel: RelId,
        side: Side,
        cols: Vec<usize>,
        key: Vec<Src>,
        rest: AtomMatch,
    },
    /// A negated atom, ground here: passes when the tuple is absent — or,
    /// at the delta position, when it is in the delta map (with its sign).
    Neg {
        rel: RelId,
        side: Side,
        args: Vec<Src>,
        delta: bool,
    },
    /// `slot = expr`; an equality check when the slot is already bound.
    Assign {
        slot: usize,
        expr: CExpr,
        bound: bool,
    },
    /// A comparison.
    Filter(CExpr, CmpOp, CExpr),
    /// A literal reading an unbound variable: fails when reached, as the
    /// interpreter does (safety analysis rejects such programs).
    Fail(String),
}

/// The delta map of one plan run and the sign multiplier of its entries
/// (`-1` at a negated position: the negation sees changes inverted).
pub(crate) type DeltaInput<'a> = (&'a BTreeMap<SharedTuple, i64>, i64);

/// What a plan run reads.
pub(crate) struct Views<'a> {
    pub(crate) storage: &'a RelationStorage,
    /// The delta map; required by delta plans, ignored otherwise.
    pub(crate) delta: Option<DeltaInput<'a>>,
    /// Adjustment (`current minus deltas`) of the steps before the delta
    /// position; `None` reads the current store.
    pub(crate) before: Option<&'a SignedDeltas>,
    /// Adjustment of the steps after the delta position.
    pub(crate) after: Option<&'a SignedDeltas>,
}

impl<'a> Views<'a> {
    /// Views reading the current store everywhere.
    pub(crate) fn current(storage: &'a RelationStorage) -> Self {
        Views {
            storage,
            delta: None,
            before: None,
            after: None,
        }
    }

    fn minus(&self, side: Side) -> Option<&'a SignedDeltas> {
        match side {
            Side::Before => self.before,
            Side::After => self.after,
        }
    }

    fn delta(&self) -> DeltaInput<'a> {
        self.delta.expect("a delta plan runs with a delta map")
    }
}

/// One compiled evaluation order of a rule body.
#[derive(Debug, Clone)]
pub(crate) struct JoinPlan {
    nslots: usize,
    /// Unifies the ground key with the head (head-bound plans only).
    prebind: Option<AtomMatch>,
    steps: Vec<Step>,
}

impl JoinPlan {
    /// Run the plan, calling `sink` once per firing.  `key` is the ground
    /// tuple a head-bound plan unifies with its head (ignored otherwise).
    /// Returns `Ok(false)` when the sink stopped the run.
    pub(crate) fn run<'a>(
        &'a self,
        views: &Views<'a>,
        key: &'a [Value],
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        let mut slots: Vec<Cow<'a, Value>> = vec![Cow::Borrowed(&UNBOUND); self.nslots];
        if let Some(m) = &self.prebind {
            if !m.apply(key, &mut slots) {
                return Ok(true);
            }
        }
        let mut bufs = vec![Vec::new(); self.steps.len()];
        self.step(0, views, &mut slots, &mut bufs, 1, sink)
    }

    fn step<'a>(
        &'a self,
        k: usize,
        v: &Views<'a>,
        slots: &mut Vec<Cow<'a, Value>>,
        bufs: &mut [Vec<Value>],
        sign: i64,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        let Some(step) = self.steps.get(k) else {
            return sink(slots, sign);
        };
        let (buf, rest) = bufs.split_first_mut().expect("one key buffer per step");
        match step {
            Step::Delta(m) => {
                let (dm, mult) = v.delta();
                for (t, s) in dm {
                    if m.apply(t, slots)
                        && !self.step(k + 1, v, slots, rest, sign * s * mult, sink)?
                    {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Step::Probe {
                rel,
                side,
                cols,
                key,
                rest: m,
            } => {
                fill(buf, key, slots);
                v.storage.probe_id(*rel, cols, buf, v.minus(*side), |t| {
                    Ok(!m.apply(t, slots) || self.step(k + 1, v, slots, rest, sign, sink)?)
                })
            }
            Step::Neg {
                rel,
                side,
                args,
                delta,
            } => {
                fill(buf, args, slots);
                if *delta {
                    let (dm, mult) = v.delta();
                    match dm.get(&buf[..]) {
                        Some(s) => self.step(k + 1, v, slots, rest, sign * s * mult, sink),
                        None => Ok(true),
                    }
                } else if v.storage.contains_adjusted_id(*rel, buf, v.minus(*side)) {
                    Ok(true)
                } else {
                    self.step(k + 1, v, slots, rest, sign, sink)
                }
            }
            Step::Assign { slot, expr, bound } => {
                let val: Cow<'a, Value> = match expr {
                    CExpr::Slot(s) => slots[*s].clone(),
                    CExpr::Const(c) => Cow::Borrowed(c),
                    e => Cow::Owned(e.eval(slots)?.into_owned()),
                };
                if *bound {
                    if *slots[*slot] != *val {
                        return Ok(true);
                    }
                } else {
                    slots[*slot] = val;
                }
                self.step(k + 1, v, slots, rest, sign, sink)
            }
            Step::Filter(a, op, b) => {
                if op.eval(&*a.eval(slots)?, &*b.eval(slots)?) {
                    self.step(k + 1, v, slots, rest, sign, sink)
                } else {
                    Ok(true)
                }
            }
            Step::Fail(msg) => Err(NdlogError::Eval { msg: msg.clone() }),
        }
    }

    /// The `(relation, bound columns)` of every store probe — the column
    /// sets the storage may need an index for.
    pub(crate) fn probes(&self) -> impl Iterator<Item = (RelId, &[usize])> {
        self.steps.iter().filter_map(|s| match s {
            Step::Probe { rel, cols, .. } => Some((*rel, cols.as_slice())),
            _ => None,
        })
    }
}

/// A head argument: a group term or an aggregate input.
#[derive(Debug, Clone)]
pub(crate) enum HeadSrc {
    Term(Src),
    Agg(AggFunc, usize),
}

/// One atom occurrence of the body and its delta plan.
#[derive(Debug, Clone)]
pub(crate) struct DeltaPlan {
    /// Position in the (safety-ordered) body.
    pub(crate) pos: usize,
    pub(crate) rel: RelId,
    pub(crate) negated: bool,
    /// The telescoped delta rule with this atom at the delta position.
    pub(crate) plan: JoinPlan,
    /// The atom alone, nothing bound: extracts an aggregate's group key
    /// from a changed tuple.
    pub(crate) atom: AtomMatch,
    /// True when the atom binds every variable of the group key.
    pub(crate) binds_group: bool,
}

/// A positive body atom as the sources of its ground tuple.
#[derive(Debug, Clone)]
pub(crate) struct Premise {
    pub(crate) rel: RelId,
    pub(crate) args: Vec<Src>,
}

/// All compiled forms of one rule; slot numbers are shared by them.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    nslots: usize,
    /// Head arguments in order.
    pub(crate) head: Vec<HeadSrc>,
    /// Positive body atoms, in body order.
    pub(crate) premises: Vec<Premise>,
    /// One delta plan per atom position, in body order.
    pub(crate) deltas: Vec<DeltaPlan>,
    /// Body order with the head's terms pre-bound from a ground key (the
    /// whole tuple of a plain head, the group key of an aggregate).
    pub(crate) headed: JoinPlan,
    /// Body order with nothing pre-bound.
    pub(crate) full: JoinPlan,
}

impl RulePlan {
    /// Compile `rule` (body in safe order, as analysis leaves it).
    pub(crate) fn compile(rule: &Rule, symbols: &Symbols) -> Self {
        // Slots are numbered in order of first mention, body then head.
        let mut names: Vec<&str> = Vec::new();
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => {
                    names.extend(a.args.iter().filter_map(Term::as_var))
                }
                Literal::Assign(v, e) => {
                    names.push(v);
                    expr_vars(e, &mut names);
                }
                Literal::Cmp(a, _, b) => {
                    expr_vars(a, &mut names);
                    expr_vars(b, &mut names);
                }
            }
        }
        for a in &rule.head.args {
            match a {
                HeadArg::Term(Term::Var(v)) | HeadArg::Agg(_, v) => names.push(v),
                HeadArg::Term(Term::Const(_)) => {}
            }
        }
        let mut slot_of: BTreeMap<&str, usize> = BTreeMap::new();
        for v in names {
            let n = slot_of.len();
            slot_of.entry(v).or_insert(n);
        }
        let c = Compiler {
            rule,
            symbols,
            slot_of: &slot_of,
        };
        let head = rule
            .head
            .args
            .iter()
            .map(|a| match a {
                HeadArg::Term(t) => HeadSrc::Term(c.src(t)),
                HeadArg::Agg(f, v) => HeadSrc::Agg(*f, slot_of[v.as_str()]),
            })
            .collect();
        let group_vars: BTreeSet<usize> = rule
            .head
            .args
            .iter()
            .filter_map(|a| match a {
                HeadArg::Term(Term::Var(v)) => Some(slot_of[v.as_str()]),
                _ => None,
            })
            .collect();
        let mut premises = Vec::new();
        let mut deltas = Vec::new();
        for (pos, lit) in rule.body.iter().enumerate() {
            let (Literal::Pos(a) | Literal::Neg(a)) = lit else {
                continue;
            };
            let rel = c.rel(a);
            let negated = matches!(lit, Literal::Neg(_));
            if !negated {
                premises.push(Premise {
                    rel,
                    args: a.args.iter().map(|t| c.src(t)).collect(),
                });
            }
            let mut bound = vec![false; slot_of.len()];
            let atom = c.atom_match(a, &mut bound);
            deltas.push(DeltaPlan {
                pos,
                rel,
                negated,
                plan: c.plan(Start::Delta(pos)),
                atom,
                binds_group: group_vars.iter().all(|&s| bound[s]),
            });
        }
        RulePlan {
            nslots: slot_of.len(),
            head,
            premises,
            deltas,
            headed: c.plan(Start::Headed),
            full: c.plan(Start::Full),
        }
    }

    /// Fresh bindings for matching a lone atom ([`DeltaPlan::atom`]).
    pub(crate) fn slots<'a>(&self) -> Vec<Cow<'a, Value>> {
        vec![Cow::Borrowed(&UNBOUND); self.nslots]
    }

    /// Write the head's group terms (every argument of a plain head) into
    /// `out`.
    pub(crate) fn head_terms(&self, slots: &Slots<'_>, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.head.iter().filter_map(|h| match h {
            HeadSrc::Term(s) => Some(s.get(slots).clone()),
            HeadSrc::Agg(..) => None,
        }));
    }
}

fn expr_vars<'r>(e: &'r Expr, out: &mut Vec<&'r str>) {
    match e {
        Expr::Var(v) => out.push(v),
        Expr::Const(_) => {}
        Expr::Bin(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Call(_, args) => args.iter().for_each(|a| expr_vars(a, out)),
    }
}

/// The evaluation shape a plan is compiled for.
#[derive(Debug, Clone, Copy)]
enum Start {
    /// The atom at this body position reads the delta map.
    Delta(usize),
    /// The head's terms are pre-bound from a ground key.
    Headed,
    /// Nothing pre-bound.
    Full,
}

struct Compiler<'r> {
    rule: &'r Rule,
    symbols: &'r Symbols,
    slot_of: &'r BTreeMap<&'r str, usize>,
}

impl Compiler<'_> {
    fn rel(&self, a: &Atom) -> RelId {
        self.symbols
            .lookup(&a.pred)
            .expect("body predicate interned at analysis")
    }

    fn slot(&self, v: &str) -> usize {
        self.slot_of[v]
    }

    fn src(&self, t: &Term) -> Src {
        match t {
            Term::Const(v) => Src::Const(v.clone()),
            Term::Var(v) => Src::Slot(self.slot(v)),
        }
    }

    /// Match actions for every column of `a` given `bound`, binding its
    /// fresh variables.
    fn atom_match(&self, a: &Atom, bound: &mut [bool]) -> AtomMatch {
        self.match_terms(a.args.iter().enumerate(), a.args.len(), bound)
    }

    /// Match actions for the `(column, term)` pairs of a tuple of `arity`
    /// columns: constants and bound variables are checked, fresh variables
    /// bound (a repeated one is checked from its second column on).
    fn match_terms<'t>(
        &self,
        terms: impl IntoIterator<Item = (usize, &'t Term)>,
        arity: usize,
        bound: &mut [bool],
    ) -> AtomMatch {
        let ops = terms
            .into_iter()
            .map(|(col, t)| match t {
                Term::Const(v) => ColOp::Const(col, v.clone()),
                Term::Var(v) => {
                    let s = self.slot(v);
                    if std::mem::replace(&mut bound[s], true) {
                        ColOp::Eq(col, s)
                    } else {
                        ColOp::Bind(col, s)
                    }
                }
            })
            .collect();
        AtomMatch { arity, ops }
    }

    /// Compile `e`, or name the first variable it reads unbound.
    fn expr(&self, e: &Expr, bound: &[bool]) -> std::result::Result<CExpr, String> {
        Ok(match e {
            Expr::Var(v) => {
                let s = self.slot(v);
                if !bound[s] {
                    return Err(format!("unbound variable {v}"));
                }
                CExpr::Slot(s)
            }
            Expr::Const(v) => CExpr::Const(v.clone()),
            Expr::Bin(op, a, b) => CExpr::Bin(
                *op,
                Box::new(self.expr(a, bound)?),
                Box::new(self.expr(b, bound)?),
            ),
            Expr::Call(name, args) => {
                let args = args
                    .iter()
                    .map(|a| self.expr(a, bound))
                    .collect::<std::result::Result<_, _>>()?;
                match Builtin::resolve(name) {
                    Some(f) => CExpr::Call(f, args),
                    None => CExpr::Unknown(name.clone(), args),
                }
            }
        })
    }

    fn plan(&self, start: Start) -> JoinPlan {
        let body = &self.rule.body;
        let mut bound = vec![false; self.slot_of.len()];
        let prebind = matches!(start, Start::Headed).then(|| {
            let terms: Vec<&Term> = self
                .rule
                .head
                .args
                .iter()
                .filter_map(|a| match a {
                    HeadArg::Term(t) => Some(t),
                    HeadArg::Agg(..) => None,
                })
                .collect();
            self.match_terms(terms.iter().copied().enumerate(), terms.len(), &mut bound)
        });
        // A positive delta atom drives the join: its tuples bind the
        // variables the other atoms then probe on.  A negated one only
        // filters ground candidates, so it stays in place.
        let order: Vec<usize> = match start {
            Start::Delta(d) if matches!(body[d], Literal::Pos(_)) => std::iter::once(d)
                .chain((0..body.len()).filter(|&i| i != d))
                .collect(),
            _ => (0..body.len()).collect(),
        };
        let mut steps = Vec::with_capacity(order.len() + 1);
        for i in order {
            let (side, at_delta) = match start {
                Start::Delta(d) => (if i < d { Side::Before } else { Side::After }, i == d),
                _ => (Side::Before, false),
            };
            let step = match &body[i] {
                Literal::Pos(a) if at_delta => Step::Delta(self.atom_match(a, &mut bound)),
                Literal::Pos(a) => {
                    let pre = bound.clone();
                    let in_key = |t: &Term| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => pre[self.slot(v)],
                    };
                    let mut cols = Vec::new();
                    let mut key = Vec::new();
                    for (col, t) in a.args.iter().enumerate() {
                        if in_key(t) {
                            cols.push(col);
                            key.push(self.src(t));
                        }
                    }
                    let fresh = a.args.iter().enumerate().filter(|(_, t)| !in_key(t));
                    let rest = self.match_terms(fresh, a.args.len(), &mut bound);
                    Step::Probe {
                        rel: self.rel(a),
                        side,
                        cols,
                        key,
                        rest,
                    }
                }
                Literal::Neg(a) => {
                    let args: std::result::Result<Vec<Src>, String> = a
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Const(v) => Ok(Src::Const(v.clone())),
                            Term::Var(v) if bound[self.slot(v)] => Ok(Src::Slot(self.slot(v))),
                            Term::Var(v) => Err(format!("unbound var {v} in negation")),
                        })
                        .collect();
                    match args {
                        Ok(args) => Step::Neg {
                            rel: self.rel(a),
                            side,
                            args,
                            delta: at_delta,
                        },
                        Err(msg) => Step::Fail(msg),
                    }
                }
                Literal::Assign(v, e) => match self.expr(e, &bound) {
                    Ok(expr) => {
                        let slot = self.slot(v);
                        let was = std::mem::replace(&mut bound[slot], true);
                        Step::Assign {
                            slot,
                            expr,
                            bound: was,
                        }
                    }
                    Err(msg) => Step::Fail(msg),
                },
                Literal::Cmp(a, op, b) => match (self.expr(a, &bound), self.expr(b, &bound)) {
                    (Ok(a), Ok(b)) => Step::Filter(a, *op, b),
                    (Err(msg), _) | (_, Err(msg)) => Step::Fail(msg),
                },
            };
            steps.push(step);
        }
        if let Some(v) = self.rule.head.vars().iter().find(|v| !bound[self.slot(v)]) {
            steps.push(Step::Fail(format!("unbound head var {v}")));
        }
        hoist_filters(&mut steps);
        JoinPlan {
            nslots: self.slot_of.len(),
            prebind,
            steps,
        }
    }
}

/// Move each filter ahead of the fresh assignments just before it while
/// that cannot change which candidates fail, are dropped, or fire (see
/// the module docs).
fn hoist_filters(steps: &mut [Step]) {
    for i in 0..steps.len() {
        let Step::Filter(a, _, b) = &steps[i] else {
            continue;
        };
        let mut reads = BTreeSet::new();
        a.reads(&mut reads);
        b.reads(&mut reads);
        let mut fails_on = BTreeSet::new();
        a.fails_on_non_list(&mut fails_on);
        b.fails_on_non_list(&mut fails_on);
        let mut j = i;
        while j > 0 {
            let Step::Assign {
                slot,
                expr,
                bound: false,
            } = &steps[j - 1]
            else {
                break;
            };
            let covered = expr
                .fails_only_on_non_list()
                .is_some_and(|needs| needs.is_subset(&fails_on));
            if reads.contains(slot) || !covered {
                break;
            }
            steps.swap(j - 1, j);
            j -= 1;
        }
    }
}
