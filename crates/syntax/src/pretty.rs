//! A pretty-printer for the internal language.
//!
//! Prints de Bruijn syntax with generated names (`a`, `b`, … for
//! constructor variables; `x`, `y`, … for term variables; `s1`, `s2`, …
//! for structure variables). Since the binding space is unified, names
//! are assigned per binder and looked up by index; a free index beyond
//! the environment prints as `#n`.
//!
//! The output uses the paper's notation: `Q(c)`, `Πa:κ.κ'`, `μa:κ.c`,
//! `[a:κ.σ]`, `ρs.S`, `fix(s:S.M)`, `Fst(s)`, `snd(s)`.

use std::fmt::{self, Write as _};

use crate::ast::{Con, Kind, Module, Sig, Term, Ty};

/// The sort of a binder, used to choose a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sort {
    Con,
    Term,
    Struct,
}

/// A generated binder name: a letter and, past the first round of
/// letters, a number (`a`, `b1`, `x2`, `s1`). Names are `Copy` and
/// written straight into the output, so naming a binder and printing a
/// variable build no strings.
#[derive(Debug, Clone, Copy)]
struct Name {
    letter: char,
    number: Option<usize>,
}

impl Name {
    /// The `n`th name of a cycle through `letters` letters from `first`.
    fn cycling(first: u8, letters: usize, n: usize) -> Self {
        Name {
            letter: (first + (n % letters) as u8) as char,
            number: (n >= letters).then_some(n / letters),
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.number {
            Some(n) => write!(f, "{}{n}", self.letter),
            None => write!(f, "{}", self.letter),
        }
    }
}

/// A variable as printed: its binder's name, or `#n` for an index `n`
/// past the environment.
enum Ident {
    Bound(Name),
    Free(usize),
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ident::Bound(name) => name.fmt(f),
            Ident::Free(i) => write!(f, "#{i}"),
        }
    }
}

/// A printing environment: one name per enclosing binder.
#[derive(Debug, Default, Clone)]
pub struct Names {
    names: Vec<Name>,
    con_count: usize,
    term_count: usize,
    struct_count: usize,
}

impl Names {
    /// An empty environment (for closed expressions).
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, sort: Sort) -> Name {
        let name = match sort {
            Sort::Con => {
                self.con_count += 1;
                Name::cycling(b'a', 6, self.con_count - 1)
            }
            Sort::Term => {
                self.term_count += 1;
                Name::cycling(b'x', 3, self.term_count - 1)
            }
            Sort::Struct => {
                self.struct_count += 1;
                Name {
                    letter: 's',
                    number: Some(self.struct_count),
                }
            }
        };
        self.names.push(name);
        name
    }

    fn pop(&mut self, sort: Sort) {
        self.names.pop();
        match sort {
            Sort::Con => self.con_count -= 1,
            Sort::Term => self.term_count -= 1,
            Sort::Struct => self.struct_count -= 1,
        }
    }

    fn lookup(&self, i: usize) -> Ident {
        if i < self.names.len() {
            Ident::Bound(self.names[self.names.len() - 1 - i])
        } else {
            Ident::Free(i - self.names.len())
        }
    }
}

/// Renders a kind with the given environment.
pub fn kind_to_string(k: &Kind, names: &mut Names) -> String {
    let mut s = String::new();
    let _ = write_kind(&mut s, k, names, 0);
    s
}

/// Renders a constructor with the given environment.
pub fn con_to_string(c: &Con, names: &mut Names) -> String {
    let mut s = String::new();
    let _ = write_con(&mut s, c, names, 0);
    s
}

/// Renders a type with the given environment.
pub fn ty_to_string(t: &Ty, names: &mut Names) -> String {
    let mut s = String::new();
    let _ = write_ty(&mut s, t, names, 0);
    s
}

/// Renders a term with the given environment.
pub fn term_to_string(e: &Term, names: &mut Names) -> String {
    let mut s = String::new();
    let _ = write_term(&mut s, e, names, 0);
    s
}

/// Renders a signature with the given environment.
pub fn sig_to_string(sg: &Sig, names: &mut Names) -> String {
    let mut s = String::new();
    let _ = write_sig(&mut s, sg, names);
    s
}

/// Renders a module with the given environment.
pub fn module_to_string(m: &Module, names: &mut Names) -> String {
    let mut s = String::new();
    let _ = write_module(&mut s, m, names);
    s
}

// Precedence levels: 0 = loosest (arrows), 1 = products/sums, 2 = application,
// 3 = atomic.
fn paren(
    f: &mut String,
    need: bool,
    inner: impl FnOnce(&mut String) -> fmt::Result,
) -> fmt::Result {
    if need {
        f.push('(');
        inner(f)?;
        f.push(')');
        Ok(())
    } else {
        inner(f)
    }
}

fn write_kind(f: &mut String, k: &Kind, names: &mut Names, prec: u8) -> fmt::Result {
    match k {
        Kind::Type => f.write_str("T"),
        Kind::Unit => f.write_str("1"),
        Kind::Singleton(c) => {
            f.write_str("Q(")?;
            write_con(f, c, names, 0)?;
            f.write_str(")")
        }
        Kind::Pi(k1, k2) => paren(f, prec > 0, |f| {
            let name = names.push(Sort::Con);
            let mut dom = String::new();
            {
                // The domain is outside the new binder: print with it popped.
                names.pop(Sort::Con);
                write_kind(&mut dom, k1, names, 1)?;
                names.push(Sort::Con);
            }
            write!(f, "\u{03a0}{name}:{dom}.")?;
            write_kind(f, k2, names, 0)?;
            names.pop(Sort::Con);
            Ok(())
        }),
        Kind::Sigma(k1, k2) => paren(f, prec > 0, |f| {
            let name = names.push(Sort::Con);
            let mut dom = String::new();
            {
                names.pop(Sort::Con);
                write_kind(&mut dom, k1, names, 1)?;
                names.push(Sort::Con);
            }
            write!(f, "\u{03a3}{name}:{dom}.")?;
            write_kind(f, k2, names, 0)?;
            names.pop(Sort::Con);
            Ok(())
        }),
    }
}

fn write_con(f: &mut String, c: &Con, names: &mut Names, prec: u8) -> fmt::Result {
    match c {
        Con::Var(i) => write!(f, "{}", names.lookup(*i)),
        Con::Fst(i) => write!(f, "Fst({})", names.lookup(*i)),
        Con::Star => f.write_str("*"),
        Con::Lam(k, b) => paren(f, prec > 0, |f| {
            let mut dom = String::new();
            write_kind(&mut dom, k, names, 1)?;
            let name = names.push(Sort::Con);
            write!(f, "\u{03bb}{name}:{dom}.")?;
            write_con(f, b, names, 0)?;
            names.pop(Sort::Con);
            Ok(())
        }),
        Con::App(a, b) => paren(f, prec > 2, |f| {
            write_con(f, a, names, 2)?;
            f.push(' ');
            write_con(f, b, names, 3)
        }),
        Con::Pair(a, b) => {
            f.push('<');
            write_con(f, a, names, 0)?;
            f.push_str(", ");
            write_con(f, b, names, 0)?;
            f.push('>');
            Ok(())
        }
        Con::Proj1(a) => paren(f, prec > 2, |f| {
            f.write_str("\u{03c0}1 ")?;
            write_con(f, a, names, 3)
        }),
        Con::Proj2(a) => paren(f, prec > 2, |f| {
            f.write_str("\u{03c0}2 ")?;
            write_con(f, a, names, 3)
        }),
        Con::Mu(k, b) => paren(f, prec > 0, |f| {
            let mut dom = String::new();
            write_kind(&mut dom, k, names, 1)?;
            let name = names.push(Sort::Con);
            write!(f, "\u{03bc}{name}:{dom}.")?;
            write_con(f, b, names, 0)?;
            names.pop(Sort::Con);
            Ok(())
        }),
        Con::Int => f.write_str("int"),
        Con::Bool => f.write_str("bool"),
        Con::UnitTy => f.write_str("unit"),
        Con::Arrow(a, b) => paren(f, prec > 0, |f| {
            write_con(f, a, names, 1)?;
            f.write_str(" \u{21c0} ")?;
            write_con(f, b, names, 0)
        }),
        Con::Prod(a, b) => paren(f, prec > 1, |f| {
            write_con(f, a, names, 2)?;
            f.write_str(" \u{00d7} ")?;
            write_con(f, b, names, 1)
        }),
        Con::Sum(cs) => {
            if cs.is_empty() {
                return f.write_str("void");
            }
            paren(f, prec > 1, |f| {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" + ")?;
                    }
                    write_con(f, c, names, 2)?;
                }
                Ok(())
            })
        }
    }
}

fn write_ty(f: &mut String, t: &Ty, names: &mut Names, prec: u8) -> fmt::Result {
    match t {
        Ty::Con(c) => write_con(f, c, names, prec),
        Ty::Unit => f.write_str("1"),
        Ty::Total(a, b) => paren(f, prec > 0, |f| {
            write_ty(f, a, names, 1)?;
            f.write_str(" \u{2192} ")?;
            write_ty(f, b, names, 0)
        }),
        Ty::Partial(a, b) => paren(f, prec > 0, |f| {
            write_ty(f, a, names, 1)?;
            f.write_str(" \u{21c0} ")?;
            write_ty(f, b, names, 0)
        }),
        Ty::Prod(a, b) => paren(f, prec > 1, |f| {
            write_ty(f, a, names, 2)?;
            f.write_str(" \u{00d7} ")?;
            write_ty(f, b, names, 1)
        }),
        Ty::Forall(k, b) => paren(f, prec > 0, |f| {
            let mut dom = String::new();
            write_kind(&mut dom, k, names, 1)?;
            let name = names.push(Sort::Con);
            write!(f, "\u{2200}{name}:{dom}.")?;
            write_ty(f, b, names, 0)?;
            names.pop(Sort::Con);
            Ok(())
        }),
    }
}

fn write_term(f: &mut String, e: &Term, names: &mut Names, prec: u8) -> fmt::Result {
    match e {
        Term::Var(i) => write!(f, "{}", names.lookup(*i)),
        Term::Snd(i) => write!(f, "snd({})", names.lookup(*i)),
        Term::Star => f.write_str("*"),
        Term::Lam(t, b) => paren(f, prec > 0, |f| {
            let mut dom = String::new();
            write_ty(&mut dom, t, names, 1)?;
            let name = names.push(Sort::Term);
            write!(f, "\u{03bb}{name}:{dom}.")?;
            write_term(f, b, names, 0)?;
            names.pop(Sort::Term);
            Ok(())
        }),
        Term::App(a, b) => paren(f, prec > 2, |f| {
            write_term(f, a, names, 2)?;
            f.push(' ');
            write_term(f, b, names, 3)
        }),
        Term::Pair(a, b) => {
            f.push('(');
            write_term(f, a, names, 0)?;
            f.push_str(", ");
            write_term(f, b, names, 0)?;
            f.push(')');
            Ok(())
        }
        Term::Proj1(a) => paren(f, prec > 2, |f| {
            f.write_str("\u{03c0}1 ")?;
            write_term(f, a, names, 3)
        }),
        Term::Proj2(a) => paren(f, prec > 2, |f| {
            f.write_str("\u{03c0}2 ")?;
            write_term(f, a, names, 3)
        }),
        Term::TLam(k, b) => paren(f, prec > 0, |f| {
            let mut dom = String::new();
            write_kind(&mut dom, k, names, 1)?;
            let name = names.push(Sort::Con);
            write!(f, "\u{039b}{name}:{dom}.")?;
            write_term(f, b, names, 0)?;
            names.pop(Sort::Con);
            Ok(())
        }),
        Term::TApp(a, c) => paren(f, prec > 2, |f| {
            write_term(f, a, names, 2)?;
            f.push('[');
            write_con(f, c, names, 0)?;
            f.push(']');
            Ok(())
        }),
        Term::Fix(t, b) => {
            let mut ann = String::new();
            write_ty(&mut ann, t, names, 1)?;
            let name = names.push(Sort::Term);
            write!(f, "fix({name}:{ann}.")?;
            write_term(f, b, names, 0)?;
            f.push(')');
            names.pop(Sort::Term);
            Ok(())
        }
        Term::IntLit(n) => write!(f, "{n}"),
        Term::BoolLit(b) => write!(f, "{b}"),
        Term::Prim(op, args) => {
            if args.len() == 2 {
                paren(f, prec > 1, |f| {
                    write_term(f, &args[0], names, 2)?;
                    write!(f, " {} ", op.name())?;
                    write_term(f, &args[1], names, 2)
                })
            } else {
                write!(f, "{}", op.name())?;
                f.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.push_str(", ");
                    }
                    write_term(f, a, names, 0)?;
                }
                f.push(')');
                Ok(())
            }
        }
        Term::If(c, t, e2) => paren(f, prec > 0, |f| {
            f.write_str("if ")?;
            write_term(f, c, names, 0)?;
            f.write_str(" then ")?;
            write_term(f, t, names, 0)?;
            f.write_str(" else ")?;
            write_term(f, e2, names, 0)
        }),
        Term::Inj(i, c, body) => paren(f, prec > 2, |f| {
            write!(f, "inj{}", i)?;
            f.push('[');
            write_con(f, c, names, 0)?;
            f.write_str("] ")?;
            write_term(f, body, names, 3)
        }),
        Term::Case(s, bs) => paren(f, prec > 0, |f| {
            f.write_str("case ")?;
            write_term(f, s, names, 0)?;
            f.write_str(" of ")?;
            for (i, b) in bs.iter().enumerate() {
                if i > 0 {
                    f.write_str(" | ")?;
                }
                let name = names.push(Sort::Term);
                write!(f, "{name}.")?;
                write_term(f, b, names, 0)?;
                names.pop(Sort::Term);
            }
            Ok(())
        }),
        Term::Roll(c, body) => paren(f, prec > 2, |f| {
            f.write_str("roll[")?;
            write_con(f, c, names, 0)?;
            f.write_str("] ")?;
            write_term(f, body, names, 3)
        }),
        Term::Unroll(body) => paren(f, prec > 2, |f| {
            f.write_str("unroll ")?;
            write_term(f, body, names, 3)
        }),
        Term::Fail(t) => {
            f.write_str("fail[")?;
            write_ty(f, t, names, 0)?;
            f.push(']');
            Ok(())
        }
        Term::Let(e1, b) => paren(f, prec > 0, |f| {
            // The bound expression is outside the binder.
            let mut bound = String::new();
            write_term(&mut bound, e1, names, 0)?;
            let name = names.push(Sort::Term);
            write!(f, "let {name} = {bound} in ")?;
            write_term(f, b, names, 0)?;
            names.pop(Sort::Term);
            Ok(())
        }),
    }
}

fn write_sig(f: &mut String, sg: &Sig, names: &mut Names) -> fmt::Result {
    match sg {
        Sig::Struct(k, t) => {
            let mut dom = String::new();
            write_kind(&mut dom, k, names, 0)?;
            let name = names.push(Sort::Con);
            write!(f, "[{name}:{dom}. ")?;
            write_ty(f, t, names, 0)?;
            f.push(']');
            names.pop(Sort::Con);
            Ok(())
        }
        Sig::Rds(inner) => {
            let name = names.push(Sort::Struct);
            write!(f, "\u{03c1}{name}.")?;
            write_sig(f, inner, names)?;
            names.pop(Sort::Struct);
            Ok(())
        }
    }
}

fn write_module(f: &mut String, m: &Module, names: &mut Names) -> fmt::Result {
    match m {
        Module::Var(i) => write!(f, "{}", names.lookup(*i)),
        Module::Struct(c, e) => {
            f.push('[');
            write_con(f, c, names, 0)?;
            f.push_str(", ");
            write_term(f, e, names, 0)?;
            f.push(']');
            Ok(())
        }
        Module::Fix(s, b) => {
            let mut ann = String::new();
            write_sig(&mut ann, s, names)?;
            let name = names.push(Sort::Struct);
            write!(f, "fix({name}:{ann}.")?;
            write_module(f, b, names)?;
            f.push(')');
            names.pop(Sort::Struct);
            Ok(())
        }
        Module::Seal(b, s) => {
            f.push('(');
            write_module(f, b, names)?;
            f.write_str(" :> ")?;
            write_sig(f, s, names)?;
            f.push(')');
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::hc;

    #[test]
    fn prints_singleton_mu() {
        // μa:Q(int).a
        let c = Con::Mu(hc(Kind::Singleton(hc(Con::Int))), hc(Con::Var(0)));
        assert_eq!(con_to_string(&c, &mut Names::new()), "\u{03bc}a:Q(int).a");
    }

    #[test]
    fn prints_pi_kind_with_fresh_names() {
        // Πa:T.Q(list a) — modelled with a free var `#0` as "list".
        let k = Kind::Pi(
            hc(Kind::Type),
            hc(Kind::Singleton(hc(Con::App(
                hc(Con::Var(1)),
                hc(Con::Var(0)),
            )))),
        );
        assert_eq!(kind_to_string(&k, &mut Names::new()), "\u{03a0}a:T.Q(#0 a)");
    }

    #[test]
    fn prints_signature() {
        let s = Sig::Struct(hc(Kind::Type), hc(Ty::Con(hc(Con::Var(0)))));
        assert_eq!(sig_to_string(&s, &mut Names::new()), "[a:T. a]");
    }

    #[test]
    fn prints_rds() {
        let s = Sig::Rds(Box::new(Sig::Struct(
            hc(Kind::Singleton(hc(Con::Arrow(
                hc(Con::Int),
                hc(Con::Fst(0)),
            )))),
            hc(Ty::Unit),
        )));
        assert_eq!(
            sig_to_string(&s, &mut Names::new()),
            "\u{03c1}s1.[a:Q(int \u{21c0} Fst(s1)). 1]"
        );
    }

    #[test]
    fn prints_fix_module() {
        let m = Module::Fix(
            Box::new(Sig::Struct(hc(Kind::Type), hc(Ty::Unit))),
            Box::new(Module::Struct(Con::Int, Term::Star)),
        );
        assert_eq!(
            module_to_string(&m, &mut Names::new()),
            "fix(s1:[a:T. 1].[int, *])"
        );
    }

    #[test]
    fn free_indices_print_hash_style() {
        assert_eq!(con_to_string(&Con::Var(2), &mut Names::new()), "#2");
    }

    #[test]
    fn nested_binders_get_distinct_names() {
        // λa:T.λb:T. a b
        let c = Con::Lam(
            hc(Kind::Type),
            hc(Con::Lam(
                hc(Kind::Type),
                hc(Con::App(hc(Con::Var(1)), hc(Con::Var(0)))),
            )),
        );
        assert_eq!(
            con_to_string(&c, &mut Names::new()),
            "\u{03bb}a:T.\u{03bb}b:T.a b"
        );
    }
}
