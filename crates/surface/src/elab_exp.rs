//! Elaboration of expressions, patterns, and core declarations.
//!
//! Declarations inside `struct … end` and `let … in` bodies elaborate to
//! a chain of `let`-bound terms; the [`BodyAcc`] accumulator records, for
//! each declaration, its dynamic term, its shape field, and its static
//! (type) contribution. The internal context is pushed in lockstep, so a
//! later declaration's references are ordinary de Bruijn indices.

use recmod_kernel::Entry;
use recmod_syntax::ast::{Con, PrimOp, Term, Ty};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::subst::{shift_con, shift_term};

use crate::ast::{BinOp, Dec, Exp, Pat};
use crate::elab::{CtorRes, Elaborator};
use crate::error::{ErrorKind, Span, SurfaceError, SurfaceResult};
use crate::shape::Item;

/// Accumulator for a declaration sequence.
#[derive(Debug)]
pub(crate) struct BodyAcc {
    /// Context depth before the first declaration.
    pub base_depth: usize,
    /// Environment mark before the first declaration.
    pub env_mark: usize,
    /// Dynamic terms, one per pushed context entry, in push order;
    /// `lets[i]` is expressed at depth `base_depth + i`.
    pub lets: Vec<Term>,
    /// Static components: `(name, constructor, depth at elaboration)`.
    pub statics: Vec<(String, Con, usize)>,
    /// Shape fields in declaration order.
    pub fields: Vec<(String, Item)>,
}

impl BodyAcc {
    pub(crate) fn dyn_len(&self) -> usize {
        self.lets.len()
    }
}

impl Elaborator {
    pub(crate) fn begin_body(&self) -> BodyAcc {
        BodyAcc {
            base_depth: self.depth(),
            env_mark: self.env.mark(),
            lets: Vec::new(),
            statics: Vec::new(),
            fields: Vec::new(),
        }
    }

    /// Pushes one dynamic binding: synthesizes its type (so later
    /// references typecheck), extends the context, and records the term.
    pub(crate) fn push_dynamic(
        &mut self,
        acc: &mut BodyAcc,
        term: Term,
        span: Span,
    ) -> SurfaceResult<usize> {
        let typing = self
            .kernel(|tc, ctx| tc.synth_term(ctx, &term))
            .map_err(|e| self.terr(span, e))?;
        self.ctx.push(Entry::Term(typing.ty, typing.valuable));
        acc.lets.push(term);
        Ok(self.depth() - 1) // the new entry's position
    }

    /// Elaborates one declaration into the accumulator.
    pub(crate) fn elab_dec(&mut self, dec: &Dec, acc: &mut BodyAcc) -> SurfaceResult<()> {
        let _j = recmod_telemetry::judgement_span("surface.elab_dec");
        self.with_depth(dec.span(), |this| this.elab_dec_inner(dec, acc))
    }

    fn elab_dec_inner(&mut self, dec: &Dec, acc: &mut BodyAcc) -> SurfaceResult<()> {
        match dec {
            Dec::Type { name, def, .. } => {
                let con = self.elab_ty(def)?;
                self.env.insert(
                    name.clone(),
                    crate::env::Entity::TyAlias {
                        con: con.clone(),
                        depth: self.depth(),
                    },
                );
                acc.statics.push((name.clone(), con, self.depth()));
                acc.fields.push((name.clone(), Item::Ty));
                Ok(())
            }
            Dec::Datatype { name, ctors, span } => {
                let (mu, info) = self.elab_datatype_con(name, ctors)?;
                self.env.insert(
                    name.clone(),
                    crate::env::Entity::Data {
                        con: mu.clone(),
                        depth: self.depth(),
                        info: info.clone(),
                    },
                );
                acc.statics.push((name.clone(), mu.clone(), self.depth()));
                acc.fields.push((name.clone(), Item::Data(info.clone())));
                // Constructor values.
                let sum = self.unrolled_sum(&mu, *span)?;
                let Con::Sum(summands) = &sum else {
                    return self.err(*span, ErrorKind::Other("datatype sum expected".into()));
                };
                let data_depth = self.depth();
                for (i, (cname, has_arg)) in info.ctors.iter().enumerate() {
                    let term = if *has_arg {
                        // λx:argᵢ. roll[μ] injᵢ[sum] x — shift annotations
                        // under the λ binder.
                        Term::Lam(
                            hc(Ty::Con(summands[i].clone())),
                            Box::new(Term::Roll(
                                shift_con(&mu, 1, 0),
                                Box::new(Term::Inj(
                                    i,
                                    shift_con(&sum, 1, 0),
                                    Box::new(Term::Var(0)),
                                )),
                            )),
                        )
                    } else {
                        Term::Roll(
                            mu.clone(),
                            Box::new(Term::Inj(i, sum.clone(), Box::new(Term::Star))),
                        )
                    };
                    // Re-shift the mu/sum to the current depth (entries
                    // accumulate as constructors are pushed).
                    let delta = (self.depth() - data_depth) as isize;
                    let term = shift_term(&term, delta, 0);
                    let pos = self.push_dynamic(acc, term, *span)?;
                    self.env.insert(
                        cname.clone(),
                        crate::env::Entity::Ctor(crate::env::CtorEntity {
                            pos,
                            data_con: mu.clone(),
                            depth: data_depth,
                            index: i,
                            has_arg: *has_arg,
                            info: info.clone(),
                        }),
                    );
                    acc.fields.push((cname.clone(), Item::Val));
                }
                Ok(())
            }
            Dec::Val {
                name,
                ann,
                exp,
                span,
            } => {
                let mut term = self.elab_exp(exp)?;
                if let Some(t) = ann {
                    term = self.ascribe(term, t)?;
                }
                let pos = self.push_dynamic(acc, term, *span)?;
                self.env
                    .insert(name.clone(), crate::env::Entity::Val { pos });
                acc.fields.push((name.clone(), Item::Val));
                Ok(())
            }
            Dec::Fun {
                name,
                param,
                param_ty,
                ret_ty,
                body,
                span,
            } => {
                let term = self.elab_fun(name, param, param_ty, ret_ty, body)?;
                let pos = self.push_dynamic(acc, term, *span)?;
                self.env
                    .insert(name.clone(), crate::env::Entity::Val { pos });
                acc.fields.push((name.clone(), Item::Val));
                Ok(())
            }
            Dec::Structure(bind) => {
                let st = self.elab_strbind_inner(bind)?;
                acc.statics
                    .push((bind.name.clone(), st.statics.clone(), self.depth()));
                let pos = self.push_dynamic(acc, st.dynamics.clone(), bind.span)?;
                acc.fields
                    .push((bind.name.clone(), Item::Struct(st.shape.clone())));
                self.env.insert(
                    bind.name.clone(),
                    crate::env::Entity::Struct(crate::env::StructEntity {
                        shape: st.shape,
                        statics: shift_con(&st.statics, 1, 0),
                        dynamics: Term::Var(0),
                        depth: self.depth(),
                    }),
                );
                let _ = pos;
                Ok(())
            }
        }
    }

    /// `fun f (x : pty) : rty = body` — a recursive function via `fix`.
    pub(crate) fn elab_fun(
        &mut self,
        name: &str,
        param: &str,
        param_ty: &crate::ast::TyExp,
        ret_ty: &crate::ast::TyExp,
        body: &Exp,
    ) -> SurfaceResult<Term> {
        let pc = self.elab_ty(param_ty)?;
        let rc = self.elab_ty(ret_ty)?;
        let fn_ty = hc(Ty::partial(Ty::con(pc.clone()), Ty::con(rc.clone())));
        // fix(f : pty ⇀ rty. λx:pty. (body : rty))
        let env_mark = self.env.mark();
        self.ctx.push(Entry::Term(fn_ty.clone(), false));
        self.env.insert(
            name.to_string(),
            crate::env::Entity::Val {
                pos: self.depth() - 1,
            },
        );
        self.ctx
            .push(Entry::Term(hc(Ty::con(shift_con(&pc, 1, 0))), true));
        self.env.insert(
            param.to_string(),
            crate::env::Entity::Val {
                pos: self.depth() - 1,
            },
        );
        let body_res = self.elab_exp(body);
        self.ctx.truncate(self.depth() - 2);
        self.env.reset(env_mark);
        let body_term = body_res?;
        // Ascribe the body at rty (shifted under fix + λ binders).
        let rc_in = shift_con(&rc, 2, 0);
        let checked = Term::App(
            Box::new(Term::Lam(hc(Ty::con(rc_in)), Box::new(Term::Var(0)))),
            Box::new(body_term),
        );
        Ok(Term::Fix(
            fn_ty,
            Box::new(Term::Lam(
                hc(Ty::con(shift_con(&pc, 1, 0))),
                Box::new(checked),
            )),
        ))
    }

    /// Type ascription by η-expansion: `(e : τ)` becomes `(λx:τ.x) e`.
    pub(crate) fn ascribe(&mut self, term: Term, t: &crate::ast::TyExp) -> SurfaceResult<Term> {
        if let Term::Fail(_) = term {
            // `(raise Fail : τ)` — give the failure its type directly.
            let con = self.elab_ty(t)?;
            return Ok(Term::Fail(hc(Ty::con(con))));
        }
        let con = self.elab_ty(t)?;
        Ok(Term::App(
            Box::new(Term::Lam(hc(Ty::con(con)), Box::new(Term::Var(0)))),
            Box::new(term),
        ))
    }

    /// Elaborates an expression to an internal term at the current depth.
    pub fn elab_exp(&mut self, e: &Exp) -> SurfaceResult<Term> {
        let _j = recmod_telemetry::judgement_span("surface.elab_exp");
        self.with_depth(e.span(), |this| this.elab_exp_inner(e))
    }

    fn elab_exp_inner(&mut self, e: &Exp) -> SurfaceResult<Term> {
        match e {
            Exp::Int(n, _) => Ok(Term::IntLit(*n)),
            Exp::Bool(b, _) => Ok(Term::BoolLit(*b)),
            Exp::Unit(_) => Ok(Term::Star),
            Exp::Raise(span) => self.err(
                *span,
                ErrorKind::Other(
                    "`raise Fail` needs a type annotation here: write `(raise Fail : ty)`"
                        .to_string(),
                ),
            ),
            Exp::Path(p) => {
                if self.is_ctor(p) {
                    Ok(self.resolve_ctor(p)?.value)
                } else {
                    self.resolve_val_path(p)
                }
            }
            Exp::App(f, a) => {
                let ft = self.elab_exp(f)?;
                let at = self.elab_exp(a)?;
                Ok(Term::App(Box::new(ft), Box::new(at)))
            }
            Exp::Bin(op, a, b, _) => {
                let ta = self.elab_exp(a)?;
                let tb = self.elab_exp(b)?;
                let prim = match op {
                    BinOp::Add => PrimOp::Add,
                    BinOp::Sub => PrimOp::Sub,
                    BinOp::Mul => PrimOp::Mul,
                    BinOp::Eq => PrimOp::Eq,
                    BinOp::Lt => PrimOp::Lt,
                };
                Ok(Term::Prim(prim, vec![ta, tb]))
            }
            Exp::Tuple(parts, _) => {
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.push(self.elab_exp(p)?);
                }
                Ok(Term::tuple(out))
            }
            Exp::Fn(x, ty, body, _) => {
                let con = self.elab_ty(ty)?;
                let mark = self.env.mark();
                self.ctx.push(Entry::Term(hc(Ty::con(con.clone())), true));
                self.env.insert(
                    x.clone(),
                    crate::env::Entity::Val {
                        pos: self.depth() - 1,
                    },
                );
                let body_res = self.elab_exp(body);
                self.ctx.truncate(self.depth() - 1);
                self.env.reset(mark);
                Ok(Term::Lam(hc(Ty::con(con)), Box::new(body_res?)))
            }
            Exp::If(c, t, f, _) => {
                let tc_ = self.elab_exp(c)?;
                let tt = self.elab_exp(t)?;
                let tf = self.elab_exp(f)?;
                Ok(Term::If(Box::new(tc_), Box::new(tt), Box::new(tf)))
            }
            Exp::Annot(inner, ty, _) => {
                let t = match &**inner {
                    Exp::Raise(_) => Term::Fail(hc(Ty::Unit)), // placeholder, retyped below
                    other => self.elab_exp(other)?,
                };
                self.ascribe(t, ty)
            }
            Exp::Let(decs, body, _) => {
                let mut acc = self.begin_body();
                let mut out: SurfaceResult<()> = Ok(());
                for d in decs {
                    if let Err(e) = self.elab_dec(d, &mut acc) {
                        out = Err(e);
                        break;
                    }
                }
                let body_res = match out {
                    Ok(()) => self.elab_exp(body),
                    Err(e) => Err(e),
                };
                self.ctx.truncate(acc.base_depth);
                self.env.reset(acc.env_mark);
                let mut term = body_res?;
                for bound in acc.lets.into_iter().rev() {
                    term = Term::Let(Box::new(bound), Box::new(term));
                }
                Ok(term)
            }
            Exp::Case(scrut, arms, span) => self.elab_case(scrut, arms, *span),
        }
    }

    fn elab_case(&mut self, scrut: &Exp, arms: &[(Pat, Exp)], span: Span) -> SurfaceResult<Term> {
        let scrut_term = self.elab_exp(scrut)?;

        // A single irrefutable arm is just a binding.
        if arms.len() == 1 {
            match &arms[0].0 {
                Pat::Tuple(parts, psp) => {
                    // Destructure a product: let p = scrut in
                    //   let x₀ = π₀ p in … body.
                    let typing = self
                        .kernel(|tc, ctx| tc.synth_term(ctx, &scrut_term))
                        .map_err(|e| self.terr(span, e))?;
                    let comp_tys = self.split_ty_prod(&typing.ty, parts.len(), *psp)?;
                    self.ctx.push(Entry::Term(typing.ty, typing.valuable));
                    let mark = self.env.mark();
                    let mut pushed = 0usize;
                    let mut result: SurfaceResult<()> = Ok(());
                    for p in parts {
                        let ty = recmod_syntax::subst::shift_ty_hc(
                            &comp_tys[pushed],
                            (pushed + 1) as isize,
                            0,
                        );
                        self.ctx.push(Entry::Term(ty, true));
                        pushed += 1;
                        match p {
                            Pat::Var(x, _) => self.env.insert(
                                x.clone(),
                                crate::env::Entity::Val {
                                    pos: self.depth() - 1,
                                },
                            ),
                            Pat::Wild(_) => {}
                            other => {
                                result = Err(SurfaceError::new(
                                    other.span(),
                                    ErrorKind::Other(
                                        "only variables and _ are allowed inside tuple patterns"
                                            .to_string(),
                                    ),
                                ));
                            }
                        }
                        if result.is_err() {
                            break;
                        }
                    }
                    let body_res = match result {
                        Ok(()) => self.elab_exp(&arms[0].1),
                        Err(e) => Err(e),
                    };
                    self.ctx.truncate(self.depth() - pushed - 1);
                    self.env.reset(mark);
                    let mut term = body_res?;
                    for j in (0..parts.len()).rev() {
                        let proj = crate::shape::term_proj(Term::Var(j), j, parts.len());
                        term = Term::Let(Box::new(proj), Box::new(term));
                    }
                    return Ok(Term::Let(Box::new(scrut_term), Box::new(term)));
                }
                Pat::Var(x, _) if !self.is_ctor(&crate::ast::Path::simple(x, span)) => {
                    let typing = self
                        .kernel(|tc, ctx| tc.synth_term(ctx, &scrut_term))
                        .map_err(|e| self.terr(span, e))?;
                    let mark = self.env.mark();
                    self.ctx.push(Entry::Term(typing.ty, typing.valuable));
                    self.env.insert(
                        x.clone(),
                        crate::env::Entity::Val {
                            pos: self.depth() - 1,
                        },
                    );
                    let body = self.elab_exp(&arms[0].1);
                    self.ctx.truncate(self.depth() - 1);
                    self.env.reset(mark);
                    return Ok(Term::Let(Box::new(scrut_term), Box::new(body?)));
                }
                Pat::Wild(_) => {
                    let body = self.elab_exp(&arms[0].1)?;
                    return Ok(Term::Let(
                        Box::new(scrut_term),
                        Box::new(shift_term(&body, 1, 0)),
                    ));
                }
                _ => {}
            }
        }

        // Find the datatype from the first constructor pattern.
        let mut ctor_of_arm: Vec<Option<CtorRes>> = Vec::with_capacity(arms.len());
        for (pat, _) in arms {
            ctor_of_arm.push(self.pattern_ctor(pat)?);
        }
        let Some(first) = ctor_of_arm.iter().flatten().next() else {
            return self.err(
                span,
                ErrorKind::Other("case requires at least one constructor pattern".into()),
            );
        };
        let info = first.info.clone();
        let data_con = first.data_con.clone();
        for c in ctor_of_arm.iter().flatten() {
            if c.info != info {
                return self.err(
                    span,
                    ErrorKind::Other(
                        "case patterns mix constructors of different datatypes".into(),
                    ),
                );
            }
        }

        let sum = self.unrolled_sum(&data_con, span)?;
        let Con::Sum(summands) = sum.clone() else {
            return self.err(
                span,
                ErrorKind::Other("case scrutinee is not a datatype".into()),
            );
        };

        // Bind the scrutinee once so catch-all arms can refer to it.
        let typing = self
            .kernel(|tc, ctx| tc.synth_term(ctx, &scrut_term))
            .map_err(|e| self.terr(span, e))?;
        self.ctx.push(Entry::Term(typing.ty, typing.valuable));
        let scrut_pos = self.depth() - 1;

        // Locate an optional trailing catch-all.
        let catch_all: Option<(&Pat, &Exp)> = arms
            .iter()
            .zip(&ctor_of_arm)
            .find(|(_, c)| c.is_none())
            .map(|((p, e), _)| (p, e));

        let mut branches = Vec::with_capacity(summands.len());
        let mut failure: Option<SurfaceError> = None;
        'outer: for (i, (cname, _)) in info.ctors.iter().enumerate() {
            // Find the arm for constructor i.
            let arm = arms
                .iter()
                .zip(&ctor_of_arm)
                .find(|(_, c)| c.as_ref().is_some_and(|c| c.index == i));
            let payload_ty = hc(Ty::con(shift_con(&summands[i], 1, 0)));
            self.ctx.push(Entry::Term(payload_ty, true));
            let mark = self.env.mark();
            let branch = match arm {
                Some(((pat, body), _)) => {
                    let sub = match pat {
                        Pat::Con(_, arg, _) => arg.as_deref(),
                        Pat::Var(_, _) => None, // nullary ctor pattern
                        _ => None,
                    };
                    let summand_here = shift_con(&summands[i], 2, 0);
                    self.elab_branch(sub, &summand_here, body, span)
                }
                None => match catch_all {
                    Some((pat, body)) => {
                        if let Pat::Var(x, _) = pat {
                            self.env
                                .insert(x.clone(), crate::env::Entity::Val { pos: scrut_pos });
                        }
                        self.elab_exp(body)
                    }
                    None => Err(SurfaceError::new(
                        span,
                        ErrorKind::Other(format!(
                            "nonexhaustive case: missing constructor `{cname}`"
                        )),
                    )),
                },
            };
            self.env.reset(mark);
            self.ctx.truncate(self.depth() - 1);
            match branch {
                Ok(b) => branches.push(b),
                Err(e) => {
                    failure = Some(e);
                    break 'outer;
                }
            }
        }
        self.ctx.truncate(scrut_pos);
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(Term::Let(
            Box::new(scrut_term),
            Box::new(Term::Case(
                Box::new(Term::Unroll(Box::new(Term::Var(0)))),
                branches,
            )),
        ))
    }

    /// Elaborates a branch body with the payload (context index 0) bound
    /// according to the argument pattern.
    fn elab_branch(
        &mut self,
        pat: Option<&Pat>,
        summand: &Con,
        body: &Exp,
        span: Span,
    ) -> SurfaceResult<Term> {
        let payload_pos = self.depth() - 1;
        match pat {
            None | Some(Pat::Wild(_)) => self.elab_exp(body),
            Some(Pat::Var(x, _)) => {
                self.env
                    .insert(x.clone(), crate::env::Entity::Val { pos: payload_pos });
                self.elab_exp(body)
            }
            Some(Pat::Tuple(parts, psp)) => {
                // Destructure via lets over projections.
                let comps = self.prod_components(summand, parts.len(), *psp)?;
                let mut pushed = 0;
                let mut result: SurfaceResult<()> = Ok(());
                for (j, p) in parts.iter().enumerate() {
                    let comp_ty = hc(Ty::con(shift_con(&comps[j], pushed as isize, 0)));
                    self.ctx.push(Entry::Term(comp_ty, true));
                    pushed += 1;
                    match p {
                        Pat::Var(x, _) => {
                            self.env.insert(
                                x.clone(),
                                crate::env::Entity::Val {
                                    pos: self.depth() - 1,
                                },
                            );
                        }
                        Pat::Wild(_) => {}
                        other => {
                            result = Err(SurfaceError::new(
                                other.span(),
                                ErrorKind::Other(
                                    "nested constructor patterns are not supported; \
                                     bind a variable and case on it"
                                        .to_string(),
                                ),
                            ));
                        }
                    }
                    if result.is_err() {
                        break;
                    }
                }
                let body_res = match result {
                    Ok(()) => self.elab_exp(body),
                    Err(e) => Err(e),
                };
                self.ctx.truncate(self.depth() - pushed);
                let mut term = body_res?;
                // Wrap the lets, innermost last: let x₀ = π₀ payload in …
                for j in (0..parts.len()).rev() {
                    let proj = crate::shape::term_proj(Term::Var(j), j, parts.len());
                    term = Term::Let(Box::new(proj), Box::new(term));
                }
                let _ = span;
                Ok(term)
            }
            Some(other) => self.err(
                other.span(),
                ErrorKind::Other("unsupported pattern form".to_string()),
            ),
        }
    }

    /// Splits a type into `n` product components, exposing monotype
    /// structure as needed.
    fn split_ty_prod(&mut self, ty: &HC<Ty>, n: usize, span: Span) -> SurfaceResult<Vec<HC<Ty>>> {
        let mut comps = Vec::with_capacity(n);
        let mut cur = ty.clone();
        for i in 0..n {
            if i == n - 1 {
                comps.push(cur.clone());
                break;
            }
            let e = self
                .kernel(|tc, ctx| tc.expose_deep(ctx, &cur))
                .map_err(|err| self.terr(span, err))?;
            match &*e {
                Ty::Prod(a, b) => {
                    comps.push(a.clone());
                    cur = b.clone();
                }
                other => {
                    return self.err(
                        span,
                        ErrorKind::Other(format!(
                            "tuple pattern with {n} parts does not match type {}",
                            recmod_syntax::pretty::ty_to_string(
                                other,
                                &mut recmod_syntax::pretty::Names::new()
                            )
                        )),
                    )
                }
            }
        }
        Ok(comps)
    }

    /// Splits a summand type into `n` product components (weak-head
    /// normalizing so aliases are seen through).
    fn prod_components(&mut self, con: &Con, n: usize, span: Span) -> SurfaceResult<Vec<Con>> {
        let mut comps = Vec::with_capacity(n);
        let mut cur = hc(con.clone());
        for i in 0..n {
            if i == n - 1 {
                comps.push(cur.take());
                break;
            }
            let w = self
                .kernel(|tc, ctx| tc.whnf(ctx, &cur))
                .map_err(|e| self.terr(span, e))?;
            match &*w {
                Con::Prod(a, b) => {
                    comps.push(a.take());
                    cur = b.clone();
                }
                other => {
                    return self.err(
                        span,
                        ErrorKind::Other(format!(
                            "tuple pattern with {n} parts does not match type {}",
                            recmod_syntax::pretty::con_to_string(
                                other,
                                &mut recmod_syntax::pretty::Names::new()
                            )
                        )),
                    );
                }
            }
        }
        Ok(comps)
    }

    /// If the pattern's head is a datatype constructor, resolve it.
    fn pattern_ctor(&mut self, pat: &Pat) -> SurfaceResult<Option<CtorRes>> {
        match pat {
            Pat::Con(path, _, _) => Ok(Some(self.resolve_ctor(path)?)),
            Pat::Var(x, sp) => {
                let p = crate::ast::Path::simple(x, *sp);
                if self.is_ctor(&p) {
                    Ok(Some(self.resolve_ctor(&p)?))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        }
    }
}
