//! Differential tests of the incremental engine's compiled join plans.
//!
//! Each program stresses one thing the plan compiler decides once per
//! rule — repeated variables, constants, assignments that act as equality
//! checks, negation at the delta position, group-restricted aggregates —
//! and a churn script runs on incremental sessions (z-set, DRed, and with
//! native operators off) beside the from-scratch oracle.  After every
//! commit all of them must hold the same database.  Two more tests pin
//! `Session::explain` output and the commit that must fail on a string
//! link cost.

use ndlog::error::NdlogError;
use ndlog::incremental::Maintenance;
use ndlog::query::Query;
use ndlog::update::{Session, Update};
use ndlog::{parse_program, Value};

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn ints(vs: &[i64]) -> Vec<Value> {
    vs.iter().map(|&v| int(v)).collect()
}

fn add(pred: &str, vs: &[i64]) -> Update {
    Update::assert(pred, ints(vs))
}

fn del(pred: &str, vs: &[i64]) -> Update {
    Update::retract(pred, ints(vs))
}

/// Run `script` commit by commit on every incremental flavour and the
/// oracle, comparing whole databases after the build and each commit.
fn matches_oracle_after_every_commit(src: &str, script: &[Vec<Update>]) {
    let prog = parse_program(src).unwrap();
    let mut oracle = Session::open(&prog).oracle().unwrap();
    let mut sessions = vec![
        ("z-set", Session::open(&prog).build().unwrap()),
        (
            "dred",
            Session::open(&prog)
                .maintenance(Maintenance::Dred)
                .build()
                .unwrap(),
        ),
        (
            "no-native",
            Session::open(&prog).native_ops(false).build().unwrap(),
        ),
    ];
    for (name, s) in &sessions {
        assert_eq!(s.database(), oracle.database(), "{name}: initial fixpoint");
    }
    for (i, batch) in script.iter().enumerate() {
        oracle.txn().extend(batch.clone()).commit().unwrap();
        for (name, s) in &mut sessions {
            s.txn().extend(batch.clone()).commit().unwrap();
            assert_eq!(
                s.database(),
                oracle.database(),
                "{name}: after commit {i} ({batch:?})"
            );
        }
    }
}

#[test]
fn repeated_variable_in_one_atom() {
    matches_oracle_after_every_commit(
        "a selfloop(X) :- e(X,X).
         b mutual(X,Y) :- e(X,Y), e(Y,X).
         c r(X,Y) :- e(X,Y).
         d r(X,Y) :- r(X,Z), e(Z,Y).
         f cyclic(X) :- r(X,X).
         e(1,2). e(2,1). e(3,3). e(2,3).",
        &[
            vec![del("e", &[3, 3])],
            vec![add("e", &[3, 1])],
            vec![del("e", &[2, 1]), add("e", &[4, 4])],
            vec![del("e", &[3, 1]), add("e", &[3, 3])],
            vec![add("e", &[2, 1]), del("e", &[1, 2])],
        ],
    );
}

#[test]
fn constants_in_body_atoms() {
    matches_oracle_after_every_commit(
        "a fromzero(Y) :- e(0,Y).
         b twohop(Y) :- e(0,Z), e(Z,Y).
         c r(X,Y) :- e(X,Y).
         d r(X,Y) :- r(X,Z), e(Z,Y).
         g reach0(Y) :- r(0,Y).
         h hot(X) :- t(X,\"hot\"), e(X,5).
         e(0,1). e(1,2). e(2,5). e(5,0). t(2,\"hot\"). t(1,\"cold\").",
        &[
            vec![del("e", &[0, 1])],
            vec![add("e", &[0, 2])],
            vec![Update::assert("t", vec![int(1), Value::Str("hot".into())])],
            vec![add("e", &[1, 5]), del("e", &[2, 5])],
            vec![add("e", &[0, 1]), del("e", &[5, 0])],
        ],
    );
}

#[test]
fn assignment_to_a_bound_variable_is_an_equality_check() {
    matches_oracle_after_every_commit(
        "a next(X,Y) :- e(X,Y), Y = X + 1.
         b same(X) :- e(X,Y), X = Y.
         c hop(X,Y,N) :- e(X,Y), N = 1.
         d hop(X,Y,N) :- hop(X,Z,M), e(Z,Y), N = M + 1, N < 4.
         f direct(X,Y) :- hop(X,Y,N), e(X,Y), N = 1.
         e(1,2). e(2,3). e(3,3). e(3,1). e(2,4).",
        &[
            vec![del("e", &[2, 3])],
            vec![add("e", &[4, 5]), add("e", &[5, 5])],
            vec![del("e", &[3, 3]), add("e", &[2, 3])],
            vec![del("e", &[1, 2])],
            vec![add("e", &[1, 2]), del("e", &[4, 5])],
        ],
    );
}

#[test]
fn negated_literal_at_the_delta_position() {
    // `unreached`/`lonely` see `r`/`e` changes through their negated
    // literal (counting strata); `p` is recursive with a negated lower
    // relation, the shape DRed's rising/falling negation maps drive.
    matches_oracle_after_every_commit(
        "a r(X,Y) :- e(X,Y).
         b r(X,Y) :- r(X,Z), e(Z,Y).
         c unreached(X) :- node(X), !r(0,X).
         d lonely(X,Y) :- node(X), node(Y), !e(X,Y), !e(Y,X).
         f p(X,Y) :- e(X,Y), !blocked(X).
         g p(X,Y) :- p(X,Z), e(Z,Y), !blocked(Z).
         e(0,1). e(1,2). e(2,3). node(0). node(1). node(2). node(3). blocked(2).",
        &[
            vec![del("e", &[1, 2])],
            vec![del("blocked", &[2]), add("blocked", &[1])],
            vec![add("e", &[1, 2]), add("e", &[3, 0])],
            vec![add("blocked", &[2]), del("e", &[0, 1])],
            vec![
                del("blocked", &[1]),
                del("blocked", &[2]),
                add("e", &[0, 1]),
            ],
        ],
    );
}

#[test]
fn group_restricted_aggregate_recompute() {
    // After the first commit every aggregate has previous outputs, so a
    // change re-aggregates only the groups its tuples name; `pairs` reads
    // `f`, whose changes do not bind the group key (full recompute).
    matches_oracle_after_every_commit(
        "a deg(X, count<Y>) :- e(X,Y).
         b best(X, min<C>) :- w(X,Y,C).
         c total(X, sum<C>) :- w(X,Y,C).
         d hop(X,Y,N) :- e(X,Y), N = 1.
         g hop(X,Y,N) :- hop(X,Z,M), e(Z,Y), N = M + 1, N < 4.
         h far(X, max<N>) :- hop(X,Y,N).
         k pairs(X, count<Z>) :- e(X,Y), f(Y,Z).
         e(1,2). e(2,3). e(1,3). w(1,2,5). w(1,3,2). w(2,3,7). f(2,9). f(3,9). f(3,8).",
        &[
            vec![add("w", &[2, 1, 4])],
            vec![del("w", &[1, 3, 2]), del("e", &[1, 3])],
            vec![add("e", &[3, 4]), add("f", &[2, 7])],
            vec![del("e", &[2, 3]), del("f", &[3, 8])],
            vec![
                add("e", &[2, 3]),
                del("w", &[2, 1, 4]),
                add("w", &[1, 3, 1]),
            ],
        ],
    );
}

/// Renderings of `Session::explain` over a path-vector network after a
/// metric change and over a program with recursion, an aggregate and a
/// negation, blessed from the interpreter the join plans replaced.
#[test]
fn explain_output_is_unchanged() {
    let render = |s: &Session, q: &Query| -> String {
        s.explain(q).iter().map(ToString::to_string).collect()
    };
    let mut pv = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut pv, &[(0, 1, 1), (1, 2, 2), (0, 2, 5), (2, 3, 1)]);
    let mut s = Session::open(&pv).build().unwrap();
    s.txn().metric_change(0, 2, 5, 2).commit().unwrap();
    let q = Query::on("bestPath")
        .bind(Value::Addr(0))
        .free()
        .free()
        .free();
    assert_eq!(
        render(&s, &q),
        "bestPath(n0,n1,[n0,n1],1)  [rule r4]
  bestPathCost(n0,n1,1)  [aggregate r3]
  path(n0,n1,[n0,n1],1)  [rule r1]
    link(n0,n1,1)  [fact x1]
bestPath(n0,n2,[n0,n2],2)  [rule r4]
  bestPathCost(n0,n2,2)  [aggregate r3]
  path(n0,n2,[n0,n2],2)  [rule r1]
    link(n0,n2,2)  [fact x1]
bestPath(n0,n3,[n0,n2,n3],3)  [rule r4]
  bestPathCost(n0,n3,3)  [aggregate r3]
  path(n0,n3,[n0,n2,n3],3)  [rule r2]
    link(n0,n2,2)  [fact x1]
    path(n2,n3,[n2,n3],1)  [rule r1]
      link(n2,n3,1)  [fact x1]
"
    );

    let prog = parse_program(
        "a r(X,Y) :- e(X,Y).
         b r(X,Y) :- r(X,Z), e(Z,Y).
         c far(X, max<Y>) :- r(X,Y).
         d cut(X) :- node(X), !r(0, X).
         e(0,1). e(1,2). e(2,0). e(3,4). node(0). node(3). node(4).",
    )
    .unwrap();
    let mut s = Session::open(&prog).build().unwrap();
    s.txn().retract("e", ints(&[2, 0])).commit().unwrap();
    let text: String = [
        Query::on("r").bind(int(0)).free(),
        Query::scan("far", 2),
        Query::scan("cut", 1),
    ]
    .iter()
    .map(|q| render(&s, q))
    .collect();
    assert_eq!(
        text,
        "r(0,1)  [rule a]
  e(0,1)  [fact x1]
r(0,2)  [rule b]
  r(0,1)  [rule a]
    e(0,1)  [fact x1]
  e(1,2)  [fact x1]
far(0,2)  [aggregate c]
far(1,2)  [aggregate c]
far(3,4)  [aggregate c]
cut(0)  [rule d]
  node(0)  [fact x1]
cut(3)  [rule d]
  node(3)  [fact x1]
cut(4)  [rule d]
  node(4)  [fact x1]
"
    );
}

fn string_cost_link() -> Vec<Value> {
    vec![Value::Addr(1), Value::Addr(3), Value::Str("x".into())]
}

/// Both backends must fail the same commit with an evaluation error.
fn both_backends_fail(edges: &[(u32, u32, i64)]) {
    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, edges);
    for (name, mut s) in [
        ("incremental", Session::open(&prog).build().unwrap()),
        ("oracle", Session::open(&prog).oracle().unwrap()),
    ] {
        let err = s
            .txn()
            .assert("link", string_cost_link())
            .commit()
            .unwrap_err();
        assert!(matches!(err, NdlogError::Eval { .. }), "{name}: {err:?}");
    }
}

#[test]
fn string_link_cost_fails_the_commit_in_a_triangle() {
    both_backends_fail(&[(1, 2, 1), (2, 3, 1), (1, 3, 4)]);
}

/// With only the reverse link, every `r2` candidate through the string
/// cost is cyclic: the `f_inPath` filter would drop all of them, so the
/// commit fails only because the filter stays after `C=C1+C2`.
#[test]
fn cycle_filter_never_hides_a_cost_error() {
    both_backends_fail(&[(3, 1, 5)]);
}
