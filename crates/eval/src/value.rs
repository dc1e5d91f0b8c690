//! Run-time values and environments.

use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

use crate::code::Code;
use crate::error::{EvalError, EvalResult};

/// A run-time value. Types are erased: `roll`/`unroll` vanish, `Λ`
/// becomes a (dummy-taking) closure, and structures never reach the
/// evaluator (phase splitting eliminates them first).
#[derive(Debug, Clone)]
pub enum Value {
    /// The trivial value `*`.
    Unit,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A pair.
    Pair(Rc<Value>, Rc<Value>),
    /// A sum injection, tagged with its branch index.
    Inj(usize, Rc<Value>),
    /// A function closure.
    Closure {
        /// The captured environment.
        env: Env,
        /// The body (under one binder), shared with the `Code` tree.
        body: Rc<Code>,
    },
    /// A type-function closure (`Λ`); applied with a dummy binding.
    TClosure {
        /// The captured environment.
        env: Env,
        /// The body (under one binder), shared with the `Code` tree.
        body: Rc<Code>,
    },
    /// A promise created by `fix` and backpatched when the right-hand
    /// side finishes evaluating. Reading an unfilled promise is a
    /// "black hole" (ruled out by the value restriction).
    Promise(Rc<OnceCell<Rc<Value>>>),
}

impl Value {
    /// Follows promise indirections, failing on an unfilled promise.
    pub fn force(self: &Rc<Self>) -> EvalResult<Rc<Value>> {
        let mut v = self;
        while let Value::Promise(cell) = &**v {
            v = cell.get().ok_or(EvalError::BlackHole)?;
        }
        Ok(v.clone())
    }

    /// [`force`](Value::force) by reference: no reference count moves.
    pub(crate) fn forced(&self) -> EvalResult<&Value> {
        let mut v = self;
        while let Value::Promise(cell) = v {
            v = cell.get().ok_or(EvalError::BlackHole)?;
        }
        Ok(v)
    }

    /// The integer payload, or a stuck error.
    pub fn as_int(&self) -> EvalResult<i64> {
        match self.forced()? {
            Value::Int(n) => Ok(*n),
            _ => Err(EvalError::Stuck("an integer")),
        }
    }

    /// The boolean payload, or a stuck error.
    pub fn as_bool(&self) -> EvalResult<bool> {
        match self.forced()? {
            Value::Bool(b) => Ok(*b),
            _ => Err(EvalError::Stuck("a boolean")),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("*"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Inj(i, v) => write!(f, "inj{i} {v}"),
            Value::Closure { .. } => f.write_str("<fn>"),
            Value::TClosure { .. } => f.write_str("<tfn>"),
            Value::Promise(cell) => match cell.get() {
                Some(v) => write!(f, "{v}"),
                None => f.write_str("<blackhole>"),
            },
        }
    }
}

/// A persistent (structure-shared) evaluation environment indexed by the
/// unified de Bruijn indices of `recmod-syntax`.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<Node>>);

#[derive(Debug)]
struct Node {
    value: Rc<Value>,
    len: usize,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Env(None)
    }

    /// Extends the environment with one binding (index 0 of the result).
    pub fn push(&self, value: Rc<Value>) -> Env {
        Env(Some(Rc::new(Node {
            value,
            len: self.len() + 1,
            next: self.clone(),
        })))
    }

    /// Looks up a de Bruijn index by reference; clone the result or
    /// [`force`](Value::force) it (one clone, through any promise).
    pub fn lookup(&self, index: usize) -> EvalResult<&Rc<Value>> {
        let mut cur = self;
        for _ in 0..index {
            match &cur.0 {
                Some(node) => cur = &node.next,
                None => return Err(EvalError::OpenTerm),
            }
        }
        match &cur.0 {
            Some(node) => Ok(&node.value),
            None => Err(EvalError::OpenTerm),
        }
    }

    /// Number of bindings (O(1); cached on each node).
    pub fn len(&self) -> usize {
        match &self.0 {
            Some(node) => node.len,
            None => 0,
        }
    }

    /// True when no bindings are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_lookup_is_lifo() {
        let env = Env::new()
            .push(Rc::new(Value::Int(1)))
            .push(Rc::new(Value::Int(2)));
        assert_eq!(env.lookup(0).unwrap().as_int().unwrap(), 2);
        assert_eq!(env.lookup(1).unwrap().as_int().unwrap(), 1);
        assert!(env.lookup(2).is_err());
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn unfilled_promise_is_a_black_hole() {
        let v: Rc<Value> = Rc::new(Value::Promise(Rc::new(OnceCell::new())));
        assert!(matches!(v.force(), Err(EvalError::BlackHole)));
    }

    #[test]
    fn filled_promise_forces_through() {
        let cell = Rc::new(OnceCell::from(Rc::new(Value::Int(9))));
        let v: Rc<Value> = Rc::new(Value::Promise(cell));
        assert_eq!(v.as_int().unwrap(), 9);
    }

    #[test]
    fn display_values() {
        let v = Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(true)));
        assert_eq!(v.to_string(), "(1, true)");
        assert_eq!(Value::Unit.to_string(), "*");
    }
}
