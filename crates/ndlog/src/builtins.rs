//! Builtin functions of NDlog.
//!
//! The paper's path-vector program uses three list-manipulation builtins:
//! `f_init(S,D)` creates a two-element path vector, `f_concatPath(S,P)`
//! prepends `S` to path `P`, and `f_inPath(P,S)` tests membership.  A few
//! more generally useful functions are provided for the other protocols and
//! for generated programs.

use crate::error::{NdlogError, Result};
use crate::value::Value;
use std::borrow::Borrow;

fn arity_err(name: &str, want: usize, got: usize) -> NdlogError {
    NdlogError::Eval {
        msg: format!("{name} expects {want} argument(s), got {got}"),
    }
}

fn type_err(name: &str, what: &str, got: &Value) -> NdlogError {
    NdlogError::Eval {
        msg: format!("{name}: expected {what}, got {} ({got})", got.sort_name()),
    }
}

/// A builtin function, resolved from its name once.
///
/// The oracle resolves per call through [`eval_builtin`]; compiled join
/// plans resolve at compile time and call with borrowed arguments, so a
/// path-vector argument is never copied just to be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Init,
    ConcatPath,
    InPath,
    Size,
    Head,
    Last,
    Append,
    Min,
    Max,
}

impl Builtin {
    /// The builtin called `name`, if there is one.
    pub(crate) fn resolve(name: &str) -> Option<Self> {
        Some(match name {
            "f_init" => Builtin::Init,
            "f_concatPath" => Builtin::ConcatPath,
            "f_inPath" => Builtin::InPath,
            "f_size" => Builtin::Size,
            "f_head" => Builtin::Head,
            "f_last" => Builtin::Last,
            "f_append" => Builtin::Append,
            "f_min" => Builtin::Min,
            "f_max" => Builtin::Max,
            _ => return None,
        })
    }

    /// The name the builtin is called by in programs.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Builtin::Init => "f_init",
            Builtin::ConcatPath => "f_concatPath",
            Builtin::InPath => "f_inPath",
            Builtin::Size => "f_size",
            Builtin::Head => "f_head",
            Builtin::Last => "f_last",
            Builtin::Append => "f_append",
            Builtin::Min => "f_min",
            Builtin::Max => "f_max",
        }
    }

    /// Number of arguments the builtin takes.
    pub(crate) fn arity(self) -> usize {
        match self {
            Builtin::Size | Builtin::Head | Builtin::Last => 1,
            _ => 2,
        }
    }

    /// The argument positions that must hold a list.  Called with the
    /// right arity, a builtin with no other failure mode errors exactly
    /// when one of these is not a list; `f_head`/`f_last` also fail on an
    /// empty list, which [`Self::fails_only_on_non_lists`] reports.
    pub(crate) fn list_args(self) -> &'static [usize] {
        match self {
            Builtin::ConcatPath => &[1],
            Builtin::InPath | Builtin::Size | Builtin::Head | Builtin::Last | Builtin::Append => {
                &[0]
            }
            Builtin::Init | Builtin::Min | Builtin::Max => &[],
        }
    }

    /// True when, called with the right arity, the builtin errors only on
    /// a non-list argument at one of [`Self::list_args`].
    pub(crate) fn fails_only_on_non_lists(self) -> bool {
        !matches!(self, Builtin::Head | Builtin::Last)
    }

    /// Apply the builtin to ground arguments (owned or borrowed).
    pub(crate) fn call<V: Borrow<Value>>(self, args: &[V]) -> Result<Value> {
        let name = self.name();
        if args.len() != self.arity() {
            return Err(arity_err(name, self.arity(), args.len()));
        }
        let arg = |i: usize| -> &Value { args[i].borrow() };
        let list = |i: usize| -> Result<&[Value]> {
            arg(i)
                .as_list()
                .ok_or_else(|| type_err(name, "list", arg(i)))
        };
        match self {
            // f_init(S,D): fresh path vector [S, D].
            Builtin::Init => Ok(Value::List(vec![arg(0).clone(), arg(1).clone()])),
            // f_concatPath(S, P): prepend S to path vector P.
            Builtin::ConcatPath => {
                let p = list(1)?;
                let mut out = Vec::with_capacity(p.len() + 1);
                out.push(arg(0).clone());
                out.extend_from_slice(p);
                Ok(Value::List(out))
            }
            // f_inPath(P, S): true iff S occurs in P.
            Builtin::InPath => Ok(Value::Bool(list(0)?.contains(arg(1)))),
            // f_size(P): length of a list.
            Builtin::Size => Ok(Value::Int(list(0)?.len() as i64)),
            // f_head(P): first element of a non-empty list.
            Builtin::Head => list(0)?.first().cloned().ok_or(NdlogError::Eval {
                msg: "f_head: empty list".into(),
            }),
            // f_last(P): last element of a non-empty list.
            Builtin::Last => list(0)?.last().cloned().ok_or(NdlogError::Eval {
                msg: "f_last: empty list".into(),
            }),
            // f_append(P, X): append X at the end of list P.
            Builtin::Append => {
                let mut out = list(0)?.to_vec();
                out.push(arg(1).clone());
                Ok(Value::List(out))
            }
            // f_min(A,B) / f_max(A,B): binary extrema on the value total order.
            Builtin::Min => Ok(arg(0).min(arg(1)).clone()),
            Builtin::Max => Ok(arg(0).max(arg(1)).clone()),
        }
    }
}

/// Evaluate builtin function `name` on ground arguments.
///
/// Unknown function names produce an `Eval` error so that typos in programs
/// are caught during the first rule firing (safety analysis also flags them
/// earlier via [`is_builtin`]).
pub fn eval_builtin(name: &str, args: &[Value]) -> Result<Value> {
    match Builtin::resolve(name) {
        Some(b) => b.call(args),
        None => Err(NdlogError::Eval {
            msg: format!("unknown builtin function '{name}'"),
        }),
    }
}

/// True if `name` is a known builtin (used by safety analysis to reject
/// unknown functions at compile time rather than first firing).
pub fn is_builtin(name: &str) -> bool {
    Builtin::resolve(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Value {
        Value::Addr(n)
    }

    #[test]
    fn f_init_builds_two_element_path() {
        let v = eval_builtin("f_init", &[a(1), a(2)]).unwrap();
        assert_eq!(v, Value::List(vec![a(1), a(2)]));
    }

    #[test]
    fn f_concat_prepends() {
        let p = Value::List(vec![a(2), a(3)]);
        let v = eval_builtin("f_concatPath", &[a(1), p]).unwrap();
        assert_eq!(v, Value::List(vec![a(1), a(2), a(3)]));
    }

    #[test]
    fn f_in_path_detects_membership_and_absence() {
        let p = Value::List(vec![a(1), a(2)]);
        assert_eq!(
            eval_builtin("f_inPath", &[p.clone(), a(2)]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_builtin("f_inPath", &[p, a(9)]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn list_utilities() {
        let p = Value::List(vec![a(1), a(2), a(3)]);
        assert_eq!(
            eval_builtin("f_size", std::slice::from_ref(&p)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_builtin("f_head", std::slice::from_ref(&p)).unwrap(),
            a(1)
        );
        assert_eq!(
            eval_builtin("f_last", std::slice::from_ref(&p)).unwrap(),
            a(3)
        );
        assert_eq!(
            eval_builtin("f_append", &[p, a(4)]).unwrap(),
            Value::List(vec![a(1), a(2), a(3), a(4)])
        );
    }

    #[test]
    fn min_max() {
        assert_eq!(
            eval_builtin("f_min", &[Value::Int(3), Value::Int(1)]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_builtin("f_max", &[Value::Int(3), Value::Int(1)]).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn arity_and_type_errors() {
        assert!(eval_builtin("f_init", &[a(1)]).is_err());
        assert!(eval_builtin("f_inPath", &[Value::Int(1), a(1)]).is_err());
        assert!(eval_builtin("f_head", &[Value::List(vec![])]).is_err());
        assert!(eval_builtin("no_such_fn", &[]).is_err());
    }

    #[test]
    fn builtin_registry() {
        assert!(is_builtin("f_init"));
        assert!(is_builtin("f_inPath"));
        assert!(!is_builtin("f_bogus"));
    }
}
