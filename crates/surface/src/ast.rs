//! The abstract syntax of the external language — an SML-like notation
//! closely following the paper's examples (§2 "we will conduct our
//! examples using an informal external language closely modeled after
//! the syntax of Standard ML").

use std::rc::Rc;

use crate::error::Span;

/// An identifier. The lexer allocates each one once; the parser moves it
/// into the tree, and the elaborator's environment keys and shapes share
/// that allocation.
pub type Name = Rc<str>;

/// A (possibly qualified) name `X.Y.t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The name parts, outermost first.
    pub parts: Vec<Name>,
    /// Source location.
    pub span: Span,
}

impl Path {
    /// A single-part path.
    pub fn simple(name: Name, span: Span) -> Self {
        Path {
            parts: vec![name],
            span,
        }
    }

    /// Renders as dotted text.
    pub fn dotted(&self) -> String {
        self.parts.join(".")
    }
}

/// Surface types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TyExp {
    /// `int`
    Int(Span),
    /// `bool`
    Bool(Span),
    /// `unit`
    Unit(Span),
    /// `t` or `X.t`
    Path(Path),
    /// `t₁ * t₂ * …` (n-ary, right-nested internally)
    Prod(Vec<TyExp>, Span),
    /// `t₁ -> t₂` (the partial arrow)
    Arrow(Box<TyExp>, Box<TyExp>, Span),
}

impl TyExp {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            TyExp::Int(s)
            | TyExp::Bool(s)
            | TyExp::Unit(s)
            | TyExp::Prod(_, s)
            | TyExp::Arrow(_, _, s) => *s,
            TyExp::Path(p) => p.span,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `=`
    Eq,
    /// `<`
    Lt,
}

/// Patterns (for `case` branches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pat {
    /// `_`
    Wild(Span),
    /// A variable.
    Var(Name, Span),
    /// A datatype constructor, with optional argument pattern.
    Con(Path, Option<Box<Pat>>, Span),
    /// A tuple pattern.
    Tuple(Vec<Pat>, Span),
}

impl Pat {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            Pat::Wild(s) | Pat::Var(_, s) | Pat::Con(_, _, s) | Pat::Tuple(_, s) => *s,
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exp {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// `()`
    Unit(Span),
    /// A variable or constructor reference, possibly qualified.
    Path(Path),
    /// Application `e₁ e₂`.
    App(Box<Exp>, Box<Exp>),
    /// Binary operator.
    Bin(BinOp, Box<Exp>, Box<Exp>, Span),
    /// Tuple `(e₁, …, eₙ)` with n ≥ 2.
    Tuple(Vec<Exp>, Span),
    /// `fn (x : ty) => e`
    Fn(Name, TyExp, Box<Exp>, Span),
    /// `if e₁ then e₂ else e₃`
    If(Box<Exp>, Box<Exp>, Box<Exp>, Span),
    /// `case e of p₁ => e₁ | …`
    Case(Box<Exp>, Vec<(Pat, Exp)>, Span),
    /// `let dec… in e end`
    Let(Vec<Dec>, Box<Exp>, Span),
    /// `raise Fail` — the paper's failure expression.
    Raise(Span),
    /// Type ascription `(e : ty)`.
    Annot(Box<Exp>, TyExp, Span),
}

impl Exp {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            Exp::Int(_, s)
            | Exp::Bool(_, s)
            | Exp::Unit(s)
            | Exp::Bin(_, _, _, s)
            | Exp::Tuple(_, s)
            | Exp::Fn(_, _, _, s)
            | Exp::If(_, _, _, s)
            | Exp::Case(_, _, s)
            | Exp::Let(_, _, s)
            | Exp::Raise(s)
            | Exp::Annot(_, _, s) => *s,
            Exp::Path(p) => p.span,
            Exp::App(f, a) => f.span().to(a.span()),
        }
    }
}

/// One datatype constructor declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtorDecl {
    /// The constructor name.
    pub name: Name,
    /// The argument type, if any (`C of ty`).
    pub arg: Option<TyExp>,
    /// Source location.
    pub span: Span,
}

/// Declarations (in `struct … end` and `let … in`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dec {
    /// `type t = ty`
    Type {
        /// The type name.
        name: Name,
        /// Its definition.
        def: TyExp,
        /// Source location.
        span: Span,
    },
    /// `datatype t = C₁ of ty | C₂ | …`
    Datatype {
        /// The datatype name.
        name: Name,
        /// Its constructors.
        ctors: Vec<CtorDecl>,
        /// Source location.
        span: Span,
    },
    /// `val x = e` / `val x : ty = e`
    Val {
        /// The value name.
        name: Name,
        /// Optional ascription.
        ann: Option<TyExp>,
        /// The bound expression.
        exp: Exp,
        /// Source location.
        span: Span,
    },
    /// `fun f (x : ty) : ty' = e` — recursive.
    Fun {
        /// The function name.
        name: Name,
        /// The parameter name.
        param: Name,
        /// The parameter type.
        param_ty: TyExp,
        /// The result type.
        ret_ty: TyExp,
        /// The body.
        body: Exp,
        /// Source location.
        span: Span,
    },
    /// A nested structure binding.
    Structure(StrBind),
}

impl Dec {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            Dec::Type { span, .. }
            | Dec::Datatype { span, .. }
            | Dec::Val { span, .. }
            | Dec::Fun { span, .. } => *span,
            Dec::Structure(b) => b.span,
        }
    }
}

/// Signature specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// `type t` (opaque) or `type t = ty` (transparent)
    Type {
        /// The type name.
        name: Name,
        /// The definition, if transparent.
        def: Option<TyExp>,
        /// Source location.
        span: Span,
    },
    /// `datatype t = …` — interpreted *structurally* (transparently);
    /// see paper §4 on the structural interpretation inside rds's.
    Datatype {
        /// The datatype name.
        name: Name,
        /// Its constructors.
        ctors: Vec<CtorDecl>,
        /// Source location.
        span: Span,
    },
    /// `val x : ty`
    Val {
        /// The value name.
        name: Name,
        /// Its type.
        ty: TyExp,
        /// Source location.
        span: Span,
    },
    /// `structure X : SIG`
    Structure {
        /// The substructure name.
        name: Name,
        /// Its signature.
        sig: SigExp,
        /// Source location.
        span: Span,
    },
}

impl Spec {
    /// The declared name.
    pub fn name(&self) -> &str {
        match self {
            Spec::Type { name, .. }
            | Spec::Datatype { name, .. }
            | Spec::Val { name, .. }
            | Spec::Structure { name, .. } => name,
        }
    }

    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            Spec::Type { span, .. }
            | Spec::Datatype { span, .. }
            | Spec::Val { span, .. }
            | Spec::Structure { span, .. } => *span,
        }
    }
}

/// Signature expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigExp {
    /// A named signature.
    Name(Name, Span),
    /// `sig spec… end`
    Body(Vec<Spec>, Span),
    /// `SIG where type p = ty`
    WhereType {
        /// The refined signature.
        base: Box<SigExp>,
        /// The path of the type component to define.
        path: Path,
        /// The definition.
        def: TyExp,
        /// Source location.
        span: Span,
    },
}

impl SigExp {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            SigExp::Name(_, s) | SigExp::Body(_, s) | SigExp::WhereType { span: s, .. } => *s,
        }
    }
}

/// Structure expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrExp {
    /// A structure path.
    Path(Path),
    /// `struct dec… end`
    Body(Vec<Dec>, Span),
    /// Functor application `F (structure X = M)` or `F (M)`.
    App {
        /// The functor name.
        functor: Name,
        /// The argument.
        arg: Box<StrExp>,
        /// Source location.
        span: Span,
    },
    /// `M : SIG` (transparent) / `M :> SIG` (opaque).
    Ascribe {
        /// The underlying structure.
        body: Box<StrExp>,
        /// The ascribed signature.
        sig: SigExp,
        /// `true` for `:>`.
        opaque: bool,
        /// Source location.
        span: Span,
    },
}

impl StrExp {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            StrExp::Path(p) => p.span,
            StrExp::Body(_, s) | StrExp::App { span: s, .. } | StrExp::Ascribe { span: s, .. } => {
                *s
            }
        }
    }
}

/// One structure binding (possibly part of a `rec … and …` group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrBind {
    /// The structure name.
    pub name: Name,
    /// Optional ascription `(sig, opaque)`.
    pub ann: Option<(SigExp, bool)>,
    /// The right-hand side.
    pub body: StrExp,
    /// Source location.
    pub span: Span,
}

/// Top-level declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopDec {
    /// `signature SIG = sigexp`
    Signature {
        /// The signature name.
        name: Name,
        /// The definition.
        sig: SigExp,
        /// Source location.
        span: Span,
    },
    /// `structure X … = M` or `structure rec X … = M and Y … = M'`.
    Structure {
        /// `true` for `structure rec`.
        rec_: bool,
        /// The bindings (singleton unless joined by `and`).
        binds: Vec<StrBind>,
        /// Source location.
        span: Span,
    },
    /// `functor F (structure [rec] X : SIG) = M`
    Functor {
        /// The functor name.
        name: Name,
        /// The parameter name.
        param: Name,
        /// `true` when the parameter signature is recursively dependent
        /// (`structure rec X : SIG` — paper §4's `BuildList`).
        param_rec: bool,
        /// The parameter signature.
        param_sig: SigExp,
        /// The body.
        body: StrExp,
        /// Source location.
        span: Span,
    },
    /// Top-level `val x = e`.
    Val {
        /// The value name.
        name: Name,
        /// Optional ascription.
        ann: Option<TyExp>,
        /// The bound expression.
        exp: Exp,
        /// Source location.
        span: Span,
    },
    /// Top-level `fun f (x:ty) : ty' = e` (recursive).
    Fun {
        /// The function name.
        name: Name,
        /// The parameter name.
        param: Name,
        /// The parameter type.
        param_ty: TyExp,
        /// The result type.
        ret_ty: TyExp,
        /// The body.
        body: Exp,
        /// Source location.
        span: Span,
    },
}

impl TopDec {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            TopDec::Signature { span, .. }
            | TopDec::Structure { span, .. }
            | TopDec::Functor { span, .. }
            | TopDec::Val { span, .. }
            | TopDec::Fun { span, .. } => *span,
        }
    }
}

/// A whole program: declarations plus an optional main expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The top-level declarations, in order.
    pub decls: Vec<TopDec>,
    /// The optional final expression (the program's result).
    pub main: Option<Exp>,
}
