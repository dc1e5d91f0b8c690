//! Abstract syntax of the internal language.
//!
//! The six syntactic classes of the paper (kinds, constructors, types,
//! terms, signatures, modules/structures) are represented with de Bruijn
//! indices drawn from a *single unified* binding space: an [`Index`] counts
//! enclosing binders of *any* sort.  The sort of the binder an index refers
//! to is recovered from the context during checking; well-formed syntax
//! never confuses sorts.
//!
//! The grammar follows Figures 1 and 3 of the paper, plus the extensions
//! called out in `DESIGN.md` §2 (n-ary sums, `int`/`bool` base types and
//! primops, a `fail` term, and iso-recursive `roll`/`unroll` coercions) —
//! all of which are needed to write the paper's own examples.

use crate::intern::{hc, HC};

/// A de Bruijn index: `0` is the innermost enclosing binder.
pub type Index = usize;

/// Kinds `κ` classify constructors (paper Figure 1).
///
/// ```text
/// κ ::= T | 1 | Q(c) | Πα:κ₁.κ₂ | Σα:κ₁.κ₂
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `T`, the kind of all monotypes.
    Type,
    /// `1`, the trivial kind containing only the constructor `*`.
    Unit,
    /// `Q(c)`, the singleton kind of monotypes definitionally equal to `c`.
    Singleton(HC<Con>),
    /// `Πα:κ₁.κ₂`: dependent constructor functions. Binds a constructor
    /// variable in the codomain.
    Pi(HC<Kind>, HC<Kind>),
    /// `Σα:κ₁.κ₂`: dependent constructor pairs. Binds a constructor
    /// variable in the right-hand kind.
    Sigma(HC<Kind>, HC<Kind>),
}

/// Type constructors `c` (paper Figure 1).
///
/// Constructors form a lambda calculus for building monotypes; the
/// monotype formers (`⇀`, `×`, sums, base types, `μ`) all have kind `T`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Con {
    /// A constructor variable `α`.
    Var(Index),
    /// `Fst(s)`: the compile-time part of the structure bound at `s`.
    Fst(Index),
    /// `*`, the sole inhabitant of kind `1`.
    Star,
    /// `λα:κ.c`: constructor-level abstraction. Binds a constructor variable.
    Lam(HC<Kind>, HC<Con>),
    /// Constructor application `c₁ c₂`.
    App(HC<Con>, HC<Con>),
    /// Constructor pair `⟨c₁, c₂⟩`.
    Pair(HC<Con>, HC<Con>),
    /// First projection `π₁ c`.
    Proj1(HC<Con>),
    /// Second projection `π₂ c`.
    Proj2(HC<Con>),
    /// `μα:κ.c`: the equi-recursive fixed point, definitionally equal to
    /// its unrolling `c[μα:κ.c/α]`. Binds a constructor variable.
    Mu(HC<Kind>, HC<Con>),
    /// The base monotype `int`.
    Int,
    /// The base monotype `bool`.
    Bool,
    /// The unit monotype `1 : T` (distinct from the kind `1`).
    UnitTy,
    /// The partial-function monotype `c₁ ⇀ c₂ : T`.
    Arrow(HC<Con>, HC<Con>),
    /// The product monotype `c₁ × c₂ : T`.
    Prod(HC<Con>, HC<Con>),
    /// An n-ary sum monotype `c₁ + ⋯ + cₙ : T` (extension; used by the
    /// elaboration of `datatype`). The empty sum is the void type.
    Sum(Vec<HC<Con>>),
}

/// Types `σ` classify terms (paper Figure 1).
///
/// Types properly include the monotypes (every constructor of kind `T`
/// is a type) and add total functions and polymorphism, which are *not*
/// constructors — the paper keeps them out of kind `T` "to prevent their
/// erroneous use in conjunction with recursive types".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// A monotype, i.e. a constructor of kind `T`.
    Con(HC<Con>),
    /// The trivial type `1`.
    Unit,
    /// Total (pure) functions `σ₁ → σ₂`: applications of valuable total
    /// functions to valuable arguments are valuable.
    Total(HC<Ty>, HC<Ty>),
    /// Partial functions `σ₁ ⇀ σ₂`.
    Partial(HC<Ty>, HC<Ty>),
    /// Products `σ₁ × σ₂`.
    Prod(HC<Ty>, HC<Ty>),
    /// Polymorphism `∀α:κ.σ`. Binds a constructor variable.
    Forall(HC<Kind>, HC<Ty>),
}

/// Primitive operations on base types (extension; see `DESIGN.md` §2).
///
/// All primops denote *total* operations: applying one to valuable
/// arguments yields a valuable expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer equality test.
    Eq,
    /// Integer less-than test.
    Lt,
}

impl PrimOp {
    /// The arity of the operation (all current primops are binary).
    pub fn arity(self) -> usize {
        2
    }

    /// The symbolic name used by the printer and the surface language.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Eq => "=",
            PrimOp::Lt => "<",
        }
    }
}

/// Terms `e` (paper Figure 1 and appendix A.1, plus extensions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A term variable `x`.
    Var(Index),
    /// `snd(s)`: the run-time part of the structure bound at `s`.
    Snd(Index),
    /// `*`, the trivial term of type `1`.
    Star,
    /// `λx:σ.e`. Binds a term variable. The checker assigns the total
    /// type `σ → σ'` when the body is valuable and `σ ⇀ σ'` otherwise.
    Lam(HC<Ty>, Box<Term>),
    /// Application `e₁ e₂`.
    App(Box<Term>, Box<Term>),
    /// Pair `(e₁, e₂)`.
    Pair(Box<Term>, Box<Term>),
    /// First projection `π₁ e`.
    Proj1(Box<Term>),
    /// Second projection `π₂ e`.
    Proj2(Box<Term>),
    /// Constructor abstraction `Λα:κ.e`. Binds a constructor variable.
    TLam(HC<Kind>, Box<Term>),
    /// Constructor application `e[c]`.
    TApp(Box<Term>, Con),
    /// `fix(x:σ.e)`: recursive values. Binds a term variable that is
    /// *not valuable* within `e` (the value restriction, §2.1).
    Fix(HC<Ty>, Box<Term>),
    /// An integer literal (extension).
    IntLit(i64),
    /// A boolean literal (extension).
    BoolLit(bool),
    /// A saturated primitive operation (extension).
    Prim(PrimOp, Vec<Term>),
    /// `if e₁ then e₂ else e₃` (extension).
    If(Box<Term>, Box<Term>, Box<Term>),
    /// `injᵢ[c] e`: injection into the sum monotype `c` at branch `i`
    /// (extension). The annotation `c` must be a sum with at least `i+1`
    /// summands.
    Inj(usize, Con, Box<Term>),
    /// `case e of x.e₁ | … | x.eₙ`: sum elimination (extension). Each
    /// branch binds one term variable for the corresponding summand.
    Case(Box<Term>, Vec<Term>),
    /// `roll[c] e`: iso-recursive introduction at the `μ` monotype `c`
    /// (extension; a definitional identity in equi-recursive mode, a
    /// proper coercion in iso-recursive mode — paper §5).
    Roll(Con, Box<Term>),
    /// `unroll e`: iso-recursive elimination.
    Unroll(Box<Term>),
    /// `fail[σ]`: a run-time failure (models the paper's `raise Fail`);
    /// never valuable.
    Fail(HC<Ty>),
    /// `let x = e₁ in e₂` (derived form, kept primitive for readability
    /// of elaborator output). Binds a term variable.
    Let(Box<Term>, Box<Term>),
}

/// Flat signatures `S` (paper Figure 3) and recursively-dependent
/// signatures `ρs.S` (paper §4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sig {
    /// `[α:κ.σ]`: the signature of structures whose compile-time part has
    /// kind `κ` and whose run-time part has type `σ` (which may mention
    /// the compile-time part through the bound constructor variable).
    /// Binds a constructor variable in the type.
    Struct(HC<Kind>, HC<Ty>),
    /// `ρs.S`: a recursively-dependent signature. Binds a structure
    /// variable in `S`; the static part of `S` must be fully transparent
    /// (paper §4.1).
    Rds(Box<Sig>),
}

/// Structures/modules `M` (paper Figure 3 and appendix A.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Module {
    /// A structure variable `s`.
    Var(Index),
    /// The flat structure `[c, e]`.
    Struct(Con, Term),
    /// `fix(s:S.M)`: a recursive module (paper §3). Binds a structure
    /// variable that is not valuable within `M`.
    Fix(Box<Sig>, Box<Module>),
    /// `M :> S`: opaque sealing — checks `M` against `S` and forgets any
    /// additional transparency. Used by the elaborator to hide the
    /// implementation of recursive datatypes after a recursive binding
    /// has been processed (paper §4).
    Seal(Box<Module>, Box<Sig>),
}

impl Kind {
    /// The non-dependent function kind `κ₁ → κ₂`.
    ///
    /// `κ₂` must make sense *outside* the binder; it is shifted under it.
    pub fn arrow(k1: Kind, k2: Kind) -> Kind {
        Kind::Pi(hc(k1), hc(crate::subst::shift_kind(&k2, 1, 0)))
    }

    /// The non-dependent pair kind `κ₁ × κ₂` (shifts `κ₂` under the binder).
    pub fn times(k1: Kind, k2: Kind) -> Kind {
        Kind::Sigma(hc(k1), hc(crate::subst::shift_kind(&k2, 1, 0)))
    }
}

impl Con {
    /// Builds nested applications `c a₁ … aₙ`.
    pub fn apps<I: IntoIterator<Item = Con>>(head: Con, args: I) -> Con {
        args.into_iter().fold(head, |f, a| Con::App(hc(f), hc(a)))
    }
}

impl Ty {
    /// The partial arrow `σ₁ ⇀ σ₂` (the surface-language `->`).
    pub fn partial(a: Ty, b: Ty) -> Ty {
        Ty::Partial(hc(a), hc(b))
    }

    /// The total arrow `σ₁ → σ₂`.
    pub fn total(a: Ty, b: Ty) -> Ty {
        Ty::Total(hc(a), hc(b))
    }

    /// The product `σ₁ × σ₂`.
    pub fn prod(a: Ty, b: Ty) -> Ty {
        Ty::Prod(hc(a), hc(b))
    }

    /// The monotype embedding.
    pub fn con(c: Con) -> Ty {
        Ty::Con(hc(c))
    }
}

impl Term {
    /// Builds nested applications `e a₁ … aₙ`.
    pub fn apps<I: IntoIterator<Item = Term>>(head: Term, args: I) -> Term {
        args.into_iter()
            .fold(head, |f, a| Term::App(Box::new(f), Box::new(a)))
    }

    /// Builds a right-nested tuple `(e₁, (e₂, …))`; the empty tuple is `*`.
    pub fn tuple(es: Vec<Term>) -> Term {
        let mut rev = es.into_iter().rev();
        let Some(last) = rev.next() else {
            return Term::Star;
        };
        rev.fold(last, |acc, e| Term::Pair(Box::new(e), Box::new(acc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrow_kind_shifts_codomain() {
        // α:T ⊢ arrow(T, Q(α)) must keep α pointing one binder further out.
        let k = Kind::arrow(Kind::Type, Kind::Singleton(hc(Con::Var(0))));
        assert_eq!(
            k,
            Kind::Pi(hc(Kind::Type), hc(Kind::Singleton(hc(Con::Var(1)))))
        );
    }

    #[test]
    fn tuple_of_zero_is_star() {
        assert_eq!(Term::tuple(vec![]), Term::Star);
    }

    #[test]
    fn tuple_nests_right() {
        let t = Term::tuple(vec![Term::IntLit(1), Term::IntLit(2), Term::IntLit(3)]);
        assert_eq!(
            t,
            Term::Pair(
                Box::new(Term::IntLit(1)),
                Box::new(Term::Pair(
                    Box::new(Term::IntLit(2)),
                    Box::new(Term::IntLit(3))
                ))
            )
        );
    }

    #[test]
    fn apps_folds_left() {
        let c = Con::apps(Con::Var(0), [Con::Int, Con::Bool]);
        assert_eq!(
            c,
            Con::App(hc(Con::App(hc(Con::Var(0)), hc(Con::Int))), hc(Con::Bool))
        );
    }

    #[test]
    fn primop_names() {
        assert_eq!(PrimOp::Add.name(), "+");
        assert_eq!(PrimOp::Lt.name(), "<");
        assert_eq!(PrimOp::Eq.arity(), 2);
    }
}
