//! A generic, sharing-preserving traversal over variable occurrences.
//!
//! All binding-aware operations (shifting, the three substitution forms,
//! the rds redirection used by phase splitting) are instances of a single
//! traversal: walk the syntax tree, keep track of how many binders have
//! been crossed, and ask a [`VarMap`] what to do at each variable
//! occurrence.
//!
//! The five occurrence shapes are: constructor variables `α`, term
//! variables `x`, the structure projections `Fst(s)` and `snd(s)`, and
//! whole-module references `s`.
//!
//! # Sharing preservation
//!
//! Constructor, kind and type children are hash-consed [`HC`] pointers
//! carrying a cached free-variable upper bound (see [`crate::intern`]). A map
//! whose [`VarMap::floor`] is `Some(fl)` promises to leave every index
//! strictly below `fl + d` untouched at traversal depth `d`; a subtree
//! whose `fv_bound` proves it contains only such indices is returned as
//! the *same pointer*, without being visited. Within one call, then, the
//! work is proportional to the spine that mentions the affected
//! variables. Rebuilt nodes are re-interned, so even a rebuilt-but-
//! unchanged subtree comes back pointer-identical to its input.
//!
//! # Memoization across calls
//!
//! That per-call bound hides the real repetition: the kernel applies the
//! same shift or substitution to the same interned node from many
//! separate judgement calls, and within one call a shared subtree is
//! rebuilt once per path that reaches it. A map that declares an
//! [`VarMap::identity`] is a pure function of `floor + d`, its identity
//! and the occurrence, so [`map_con_hc`], [`map_kind_hc`] and
//! [`map_ty_hc`] remember
//! each rebuilt pointer in the per-thread [`crate::memo`] table under
//! `(op, floor + d, param, node id)` and answer a repeat from there. Node
//! ids are never reused, so a key names one structure forever and a hit
//! is the very pointer a rebuild would intern. Every other map — the
//! occurrence probes, the NbE environment substitution, term and
//! structure substitution, the rds and phase-splitting redirections —
//! declares no identity and always rebuilds.

use crate::ast::{Con, Index, Kind, Module, Sig, Term, Ty};
use crate::intern::{hc, HC};
use crate::memo::{self, Key, Memoized, Op};

/// A rewriting strategy for variable occurrences.
///
/// `d` is the number of binders crossed between the root of the traversal
/// and the occurrence; `i` is the (absolute) de Bruijn index found there.
/// Implementations typically compare `i` with `d` plus some target index.
pub trait VarMap {
    /// Rewrite a constructor-variable occurrence `α(i)`.
    fn cvar(&mut self, d: usize, i: Index) -> Con;
    /// Rewrite a term-variable occurrence `x(i)`.
    fn tvar(&mut self, d: usize, i: Index) -> Term;
    /// Rewrite an occurrence of `Fst(s(i))`.
    fn fst(&mut self, d: usize, i: Index) -> Con;
    /// Rewrite an occurrence of `snd(s(i))`.
    fn snd(&mut self, d: usize, i: Index) -> Term;
    /// Rewrite a whole-module occurrence of the structure variable `s(i)`.
    fn mvar(&mut self, d: usize, i: Index) -> Module;

    /// The smallest root-relative index this map can affect: occurrences
    /// of index `i` at depth `d` with `i < floor() + d` must be mapped to
    /// themselves. `None` disables the sharing fast path (every subtree
    /// is visited). The default is conservative; maps that know their
    /// cutoff (shifts, substitutions) override it.
    fn floor(&self) -> Option<usize> {
        None
    }

    /// The map's memo identity `(op, param)`: declaring one promises
    /// that the map has a floor and that its result on a subtree at
    /// depth `d` is a pure function of `floor() + d`, `op`, `param` and
    /// the subtree, so it may be remembered across calls (see
    /// [`crate::memo`]). `None`, the default, keeps the map memo-free.
    /// Takes `&mut self` so a map can compute its parameter lazily,
    /// once per call, and only when the sharing fast path fails.
    fn identity(&mut self) -> Option<(Op, u64)> {
        None
    }
}

/// Skip test for the sharing fast path: at depth `d`, a subtree whose
/// free indices are all `< fvb` is untouched iff `fvb ≤ floor + d`.
#[inline]
fn untouched<M: VarMap>(m: &M, d: usize, fvb: usize) -> bool {
    match m.floor() {
        Some(fl) => fvb <= fl + d,
        None => false,
    }
}

/// The memo key for applying `m` to `node` at depth `d`, if `m` has an
/// identity.
fn memo_key<M: VarMap>(m: &mut M, d: usize, node: u64) -> Option<Key> {
    let (op, param) = m.identity()?;
    let base = (m.floor()? + d) as u64;
    Some(Key {
        op,
        base,
        param,
        node,
    })
}

/// The shared body of [`map_kind_hc`], [`map_con_hc`] and
/// [`map_ty_hc`]: the sharing
/// fast path, then the memo, then a rebuild.
fn map_hc<T: Memoized, M: VarMap>(
    x: &HC<T>,
    d: usize,
    m: &mut M,
    rebuild: impl FnOnce(&T, usize, &mut M) -> T,
) -> HC<T> {
    if untouched(m, d, x.fv_bound()) {
        return x.clone();
    }
    let key = memo_key(m, d, x.id());
    if let Some(hit) = key.as_ref().and_then(memo::lookup) {
        return hit;
    }
    let out = hc(rebuild(x.get(), d, m));
    if let Some(key) = key {
        memo::insert(key, out.clone());
    }
    out
}

/// Applies `m` to every variable occurrence under a kind pointer,
/// returning the identical pointer when the subtree is out of reach.
pub fn map_kind_hc<M: VarMap>(k: &HC<Kind>, d: usize, m: &mut M) -> HC<Kind> {
    map_hc(k, d, m, map_kind)
}

/// Applies `m` to every variable occurrence under a constructor pointer,
/// returning the identical pointer when the subtree is out of reach.
pub fn map_con_hc<M: VarMap>(c: &HC<Con>, d: usize, m: &mut M) -> HC<Con> {
    map_hc(c, d, m, map_con)
}

/// Applies `m` to every variable occurrence under a type pointer,
/// returning the identical pointer when the subtree is out of reach.
pub fn map_ty_hc<M: VarMap>(t: &HC<Ty>, d: usize, m: &mut M) -> HC<Ty> {
    map_hc(t, d, m, map_ty)
}

/// Applies `m` to every variable occurrence in `k`, starting at depth `d`.
pub fn map_kind<M: VarMap>(k: &Kind, d: usize, m: &mut M) -> Kind {
    match k {
        Kind::Type => Kind::Type,
        Kind::Unit => Kind::Unit,
        Kind::Singleton(c) => Kind::Singleton(map_con_hc(c, d, m)),
        Kind::Pi(k1, k2) => Kind::Pi(map_kind_hc(k1, d, m), map_kind_hc(k2, d + 1, m)),
        Kind::Sigma(k1, k2) => Kind::Sigma(map_kind_hc(k1, d, m), map_kind_hc(k2, d + 1, m)),
    }
}

/// Applies `m` to every variable occurrence in `c`, starting at depth `d`.
pub fn map_con<M: VarMap>(c: &Con, d: usize, m: &mut M) -> Con {
    match c {
        Con::Var(i) => m.cvar(d, *i),
        Con::Fst(i) => m.fst(d, *i),
        Con::Star => Con::Star,
        Con::Lam(k, b) => Con::Lam(map_kind_hc(k, d, m), map_con_hc(b, d + 1, m)),
        Con::App(f, a) => Con::App(map_con_hc(f, d, m), map_con_hc(a, d, m)),
        Con::Pair(a, b) => Con::Pair(map_con_hc(a, d, m), map_con_hc(b, d, m)),
        Con::Proj1(a) => Con::Proj1(map_con_hc(a, d, m)),
        Con::Proj2(a) => Con::Proj2(map_con_hc(a, d, m)),
        Con::Mu(k, b) => Con::Mu(map_kind_hc(k, d, m), map_con_hc(b, d + 1, m)),
        Con::Int => Con::Int,
        Con::Bool => Con::Bool,
        Con::UnitTy => Con::UnitTy,
        Con::Arrow(a, b) => Con::Arrow(map_con_hc(a, d, m), map_con_hc(b, d, m)),
        Con::Prod(a, b) => Con::Prod(map_con_hc(a, d, m), map_con_hc(b, d, m)),
        Con::Sum(cs) => Con::Sum(cs.iter().map(|c| map_con_hc(c, d, m)).collect()),
    }
}

/// Applies `m` to every variable occurrence in `t`, starting at depth `d`.
pub fn map_ty<M: VarMap>(t: &Ty, d: usize, m: &mut M) -> Ty {
    match t {
        Ty::Con(c) => Ty::Con(map_con_hc(c, d, m)),
        Ty::Unit => Ty::Unit,
        Ty::Total(a, b) => Ty::Total(map_ty_hc(a, d, m), map_ty_hc(b, d, m)),
        Ty::Partial(a, b) => Ty::Partial(map_ty_hc(a, d, m), map_ty_hc(b, d, m)),
        Ty::Prod(a, b) => Ty::Prod(map_ty_hc(a, d, m), map_ty_hc(b, d, m)),
        Ty::Forall(k, b) => Ty::Forall(map_kind_hc(k, d, m), map_ty_hc(b, d + 1, m)),
    }
}

/// Applies `m` to every variable occurrence in `e`, starting at depth `d`.
pub fn map_term<M: VarMap>(e: &Term, d: usize, m: &mut M) -> Term {
    let mut out = e.clone();
    map_term_mut(&mut out, d, m);
    out
}

/// [`map_term`] on a term the caller owns: rewrites it in place, so its
/// boxes are reused rather than rebuilt. Children are visited left to
/// right, a binder's annotation before its body.
pub fn map_term_mut<M: VarMap>(e: &mut Term, d: usize, m: &mut M) {
    match e {
        Term::Var(i) => {
            let i = *i;
            *e = m.tvar(d, i);
        }
        Term::Snd(i) => {
            let i = *i;
            *e = m.snd(d, i);
        }
        Term::Star | Term::IntLit(_) | Term::BoolLit(_) => {}
        Term::Lam(t, b) | Term::Fix(t, b) => {
            *t = map_ty_hc(t, d, m);
            map_term_mut(b, d + 1, m);
        }
        Term::App(a, b) | Term::Pair(a, b) => {
            map_term_mut(a, d, m);
            map_term_mut(b, d, m);
        }
        Term::Proj1(a) | Term::Proj2(a) | Term::Unroll(a) => map_term_mut(a, d, m),
        Term::TLam(k, b) => {
            *k = map_kind_hc(k, d, m);
            map_term_mut(b, d + 1, m);
        }
        Term::TApp(f, c) => {
            map_term_mut(f, d, m);
            *c = map_con(c, d, m);
        }
        Term::Prim(_, args) => args.iter_mut().for_each(|a| map_term_mut(a, d, m)),
        Term::If(c, t, f) => {
            map_term_mut(c, d, m);
            map_term_mut(t, d, m);
            map_term_mut(f, d, m);
        }
        Term::Inj(_, c, a) | Term::Roll(c, a) => {
            *c = map_con(c, d, m);
            map_term_mut(a, d, m);
        }
        Term::Case(s, bs) => {
            map_term_mut(s, d, m);
            bs.iter_mut().for_each(|b| map_term_mut(b, d + 1, m));
        }
        Term::Fail(t) => *t = map_ty_hc(t, d, m),
        Term::Let(a, b) => {
            map_term_mut(a, d, m);
            map_term_mut(b, d + 1, m);
        }
    }
}

/// Applies `m` to every variable occurrence in `s`, starting at depth `d`.
pub fn map_sig<M: VarMap>(s: &Sig, d: usize, m: &mut M) -> Sig {
    match s {
        Sig::Struct(k, t) => Sig::Struct(map_kind_hc(k, d, m), map_ty_hc(t, d + 1, m)),
        Sig::Rds(s) => Sig::Rds(Box::new(map_sig(s, d + 1, m))),
    }
}

/// Applies `m` to every variable occurrence in `md`, starting at depth `d`.
pub fn map_module<M: VarMap>(md: &Module, d: usize, m: &mut M) -> Module {
    match md {
        Module::Var(i) => m.mvar(d, *i),
        Module::Struct(c, e) => Module::Struct(map_con(c, d, m), map_term(e, d, m)),
        Module::Fix(s, b) => Module::Fix(
            Box::new(map_sig(s, d, m)),
            Box::new(map_module(b, d + 1, m)),
        ),
        Module::Seal(b, s) => {
            Module::Seal(Box::new(map_module(b, d, m)), Box::new(map_sig(s, d, m)))
        }
    }
}
