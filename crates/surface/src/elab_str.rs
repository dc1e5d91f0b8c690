//! Elaboration of structure expressions, bindings, functors, and
//! recursive structure groups.
//!
//! `structure rec` follows the paper's prescription:
//!
//! * the bindings of a `rec … and …` group become **one** internal
//!   `fix(s:S.M)` whose body is a structure of substructures;
//! * the annotation is rendered as a recursively-dependent signature,
//!   made *fully transparent* "by inspection of the module being
//!   defined" (§4.1): opaque `type t` specs are filled in with the
//!   body's implementation types;
//! * exception: a `:>`-sealed group whose signatures make **no**
//!   reference to the recursive variables keeps the paper's §3 *opaque*
//!   interpretation — reproducing both the inefficient opaque `List` and
//!   the ill-typed opaque `Expr`/`Decl`.

use std::rc::Rc;

use recmod_kernel::Entry;
use recmod_syntax::ast::{Con, Kind, Module, Sig, Term, Ty};
use recmod_syntax::intern::hc;
use recmod_syntax::map::VarMap;
use recmod_syntax::subst::{shift_con, shift_kind, shift_term, shift_ty, subst_con_ty};

use crate::ast::{Dec, Name, SigExp, Spec, StrBind, StrExp, TopDec};
use crate::elab::{Elaborator, TopBinding};
use crate::env::{Entity, FunctorEntity, SigTemplate, StructEntity};
use crate::error::{ErrorKind, Span, SurfaceError, SurfaceResult};
use crate::shape::{con_proj, con_tuple, kind_tuple, term_proj, term_tuple, ty_tuple, Item, Shape};

impl Elaborator {
    // ------------------------------------------------------------------
    // Structure expressions
    // ------------------------------------------------------------------

    /// Elaborates a structure expression to an inline view at the
    /// current depth (static tuple, dynamic term, shape).
    pub fn elab_strexp(&mut self, se: &StrExp) -> SurfaceResult<StructEntity> {
        let _j = recmod_telemetry::judgement_span("surface.elab_strexp");
        self.with_depth(se.span(), |this| this.elab_strexp_inner(se))
    }

    fn elab_strexp_inner(&mut self, se: &StrExp) -> SurfaceResult<StructEntity> {
        match se {
            StrExp::Path(p) => self.resolve_struct(p),
            StrExp::Body(decs, span) => self.elab_struct_body(decs, *span),
            // Both `:` and `:>` check the coerced structure against the
            // signature; true opacity takes effect when the expression is
            // *bound* (the binding's context entry gets the sealed
            // signature). See `elab_plain_structure`.
            StrExp::Ascribe {
                body, sig, span, ..
            } => self.elab_ascription(body, sig, *span),
            StrExp::App { functor, arg, span } => {
                let Some(Entity::Functor(fe)) = self.env.lookup(functor) else {
                    return match self.env.lookup(functor) {
                        Some(_) => self.err(
                            *span,
                            ErrorKind::WrongEntity {
                                name: functor.to_string(),
                                expected: "a functor",
                            },
                        ),
                        None => self.err(*span, ErrorKind::Unbound(functor.to_string())),
                    };
                };
                let fe = Rc::clone(fe);
                let src = self.elab_strexp(arg)?;
                let coerced = self.coerce(src, &fe.param.shape, *span)?;
                // Check the (coerced) argument against the parameter
                // signature — this is where an rds parameter's recursive
                // type equations are demanded of the argument.
                let param_sig = self
                    .retarget_template(fe.param.clone())
                    .instantiate(self.depth());
                let coerced = self.check_struct(coerced, &param_sig, *span)?;
                // β-reduce the application (the HMM equational rule):
                // shift the stored body to this depth (keeping its
                // parameter binder fixed), then substitute the argument's
                // phase-split parts for the parameter.
                let delta = self.depth() as isize + 1 - fe.body_depth as isize;
                let body_con = shift_con(&fe.body_con, delta, 1);
                let body_term = shift_term(&fe.body_term, delta, 1);
                let parts = recmod_syntax::subst::ModParts {
                    fst: coerced.statics,
                    snd: Some(coerced.dynamics),
                };
                Ok(StructEntity {
                    shape: fe.result_shape.clone(),
                    statics: recmod_syntax::subst::subst_mod_con(&body_con, &parts),
                    dynamics: recmod_syntax::subst::subst_mod_term(&body_term, &parts),
                    depth: self.depth(),
                })
            }
        }
    }

    /// Elaborates `body : sig` (or `body :> sig`): coerces the body to
    /// the signature's layout and checks it against the signature.
    fn elab_ascription(
        &mut self,
        body: &StrExp,
        sig: &SigExp,
        span: Span,
    ) -> SurfaceResult<StructEntity> {
        let tmpl = self.elab_sigexp(sig)?;
        let src = self.elab_strexp(body)?;
        let coerced = self.coerce(src, &tmpl.shape, span)?;
        let target = tmpl.instantiate(self.depth());
        let checked = self.check_struct(coerced, &target, span)?;
        Ok(StructEntity {
            shape: tmpl.shape,
            ..checked
        })
    }

    /// `Γ ⊢ [c, e] : S` for an inline structure. The parts move into the
    /// module the kernel checks and are taken back out afterwards.
    fn check_struct(
        &mut self,
        es: StructEntity,
        target: &Sig,
        span: Span,
    ) -> SurfaceResult<StructEntity> {
        let StructEntity {
            shape,
            statics,
            dynamics,
            depth,
        } = es;
        let module = Module::Struct(statics, dynamics);
        self.kernel(|tc, ctx| tc.check_module(ctx, &module, target))
            .map_err(|e| self.terr(span, e))?;
        let Module::Struct(statics, dynamics) = module else {
            unreachable!("the module was built as a structure")
        };
        Ok(StructEntity {
            shape,
            statics,
            dynamics,
            depth,
        })
    }

    /// Elaborates `struct decs end`.
    pub(crate) fn elab_struct_body(
        &mut self,
        decs: &[Dec],
        span: Span,
    ) -> SurfaceResult<StructEntity> {
        let mut acc = self.begin_body();
        let mut failure = None;
        for d in decs {
            if let Err(e) = self.elab_dec(d, &mut acc) {
                failure = Some(e);
                break;
            }
        }
        let base = acc.base_depth;
        let n_dyn = acc.dyn_len();
        // Assemble before restoring the context.
        let result = if failure.is_none() {
            let tuple = term_tuple(
                (0..n_dyn)
                    .map(|i| Term::Var(n_dyn - 1 - i))
                    .collect::<Vec<_>>(),
            );
            let mut term = tuple;
            for bound in acc.lets.drain(..).rev() {
                term = Term::Let(Box::new(bound), Box::new(term));
            }
            let statics = con_tuple(
                acc.statics
                    .iter()
                    .map(|(_, c, d)| shift_con(c, base as isize - *d as isize, 0))
                    .collect(),
            );
            Some(StructEntity {
                shape: Shape {
                    fields: acc.fields.as_slice().into(),
                },
                statics,
                dynamics: term,
                depth: base,
            })
        } else {
            None
        };
        self.ctx.truncate(base);
        self.env.reset(acc.env_mark);
        match (failure, result) {
            (Some(e), _) => Err(e),
            (None, Some(r)) => Ok(r),
            (None, None) => Err(SurfaceError::internal(
                span,
                "structure body produced neither a result nor an error",
            )),
        }
    }

    /// Elaborates a structure binding's right-hand side, ascribed to its
    /// annotation if it has one. An annotated binding elaborates as the
    /// ascription `body : sig` spanning the whole binding would.
    pub(crate) fn elab_strbind_inner(&mut self, bind: &StrBind) -> SurfaceResult<StructEntity> {
        match &bind.ann {
            Some((sig, _)) => {
                let _j = recmod_telemetry::judgement_span("surface.elab_strexp");
                self.with_depth(bind.span, |this| {
                    this.elab_ascription(&bind.body, sig, bind.span)
                })
            }
            None => self.elab_strexp(&bind.body),
        }
    }

    // ------------------------------------------------------------------
    // Coercion (signature matching)
    // ------------------------------------------------------------------

    /// Re-tuples `src` to the field layout of `target` (dropping extra
    /// components, reordering, recursing into substructures).
    pub(crate) fn coerce(
        &mut self,
        src: StructEntity,
        target: &Shape,
        span: Span,
    ) -> SurfaceResult<StructEntity> {
        if src.shape == *target {
            return Ok(src);
        }
        let statics = self.coerce_statics(&src.statics, &src.shape, target, span)?;
        let dynamics = self.coerce_dynamics(src.dynamics, &src.shape, target, span)?;
        Ok(StructEntity {
            shape: target.clone(),
            statics,
            dynamics,
            depth: src.depth,
        })
    }

    fn coerce_statics(
        &mut self,
        src_con: &Con,
        src_shape: &Shape,
        target: &Shape,
        span: Span,
    ) -> SurfaceResult<Con> {
        if src_shape == target {
            return Ok(src_con.clone());
        }
        let n_src = src_shape.static_len();
        let mut parts = Vec::new();
        for (name, item, _) in target.static_fields() {
            let Some(src_item) = src_shape.find(name) else {
                return self.err(
                    span,
                    ErrorKind::MissingComponent {
                        name: name.to_string(),
                    },
                );
            };
            let Some(slot) = src_shape.static_slot(name) else {
                return self.err(
                    span,
                    ErrorKind::MissingComponent {
                        name: name.to_string(),
                    },
                );
            };
            let proj = con_proj(src_con.clone(), slot, n_src);
            match (item, src_item) {
                (Item::Ty | Item::Data(_), Item::Ty | Item::Data(_)) => parts.push(proj),
                (Item::Struct(sub_t), Item::Struct(sub_s)) => {
                    parts.push(self.coerce_statics(&proj, &sub_s.clone(), sub_t, span)?);
                }
                _ => {
                    return self.err(
                        span,
                        ErrorKind::WrongEntity {
                            name: name.to_string(),
                            expected: "a component of the same kind as the signature's",
                        },
                    )
                }
            }
        }
        Ok(con_tuple(parts))
    }

    fn coerce_dynamics(
        &mut self,
        src_term: Term,
        src_shape: &Shape,
        target: &Shape,
        span: Span,
    ) -> SurfaceResult<Term> {
        if src_shape == target {
            return Ok(src_term);
        }
        let n_src = src_shape.dyn_len();
        let mut parts = Vec::new();
        for (name, item, _) in target.dyn_fields() {
            let Some(src_item) = src_shape.find(name) else {
                return self.err(
                    span,
                    ErrorKind::MissingComponent {
                        name: name.to_string(),
                    },
                );
            };
            let Some(slot) = src_shape.dyn_slot(name) else {
                return self.err(
                    span,
                    ErrorKind::MissingComponent {
                        name: name.to_string(),
                    },
                );
            };
            // Under the let binder, the source tuple is Var(0).
            let proj = term_proj(Term::Var(0), slot, n_src);
            match (item, src_item) {
                (Item::Val, Item::Val) => parts.push(proj),
                (Item::Struct(sub_t), Item::Struct(sub_s)) => {
                    parts.push(self.coerce_dynamics(proj, &sub_s.clone(), sub_t, span)?);
                }
                _ => {
                    return self.err(
                        span,
                        ErrorKind::WrongEntity {
                            name: name.to_string(),
                            expected: "a component of the same kind as the signature's",
                        },
                    )
                }
            }
        }
        Ok(Term::Let(Box::new(src_term), Box::new(term_tuple(parts))))
    }

    // ------------------------------------------------------------------
    // Top-level declarations
    // ------------------------------------------------------------------

    /// Elaborates one top-level declaration, extending the context,
    /// environment, and binding list.
    pub fn elab_topdec(&mut self, dec: &TopDec) -> SurfaceResult<()> {
        let _j = recmod_telemetry::declaration_span("surface.elab_topdec");
        self.current_decl = dec.span();
        self.with_depth(dec.span(), |this| this.elab_topdec_inner(dec))
    }

    fn elab_topdec_inner(&mut self, dec: &TopDec) -> SurfaceResult<()> {
        recmod_telemetry::count("surface.topdecs", 1);
        match dec {
            TopDec::Signature { name, sig, .. } => {
                let tmpl = self.elab_sigexp(sig)?;
                self.env.insert(name.clone(), Entity::SigDef(tmpl));
                Ok(())
            }
            TopDec::Val {
                name,
                ann,
                exp,
                span,
            } => self.measured(|e| {
                let mut term = e.elab_exp(exp)?;
                if let Some(t) = ann {
                    term = e.ascribe(term, t)?;
                }
                e.bind_value(name, term, *span)
            }),
            TopDec::Fun {
                name,
                param,
                param_ty,
                ret_ty,
                body,
                span,
            } => self.measured(|e| {
                let term = e.elab_fun(name, param, param_ty, ret_ty, body)?;
                e.bind_value(name, term, *span)
            }),
            TopDec::Structure {
                rec_: false, binds, ..
            } => {
                for bind in binds {
                    self.measured(|e| e.elab_plain_structure(bind))?;
                }
                Ok(())
            }
            TopDec::Structure {
                rec_: true,
                binds,
                span,
            } => self.measured(|e| e.elab_rec_group(binds, *span)),
            TopDec::Functor {
                name,
                param,
                param_rec,
                param_sig,
                body,
                span,
            } => self.measured(|e| e.elab_functor(name, param, *param_rec, param_sig, body, *span)),
        }
    }

    /// Runs one declaration's elaboration, stamping every binding it
    /// produces with the elapsed wall-clock time and the kernel
    /// judgement-counter delta it incurred.
    fn measured(&mut self, f: impl FnOnce(&mut Self) -> SurfaceResult<()>) -> SurfaceResult<()> {
        let mark = self.bindings.len();
        let before = self.tc.stats();
        let t0 = std::time::Instant::now();
        let result = f(self);
        let nanos = t0.elapsed().as_nanos() as u64;
        let delta = self.tc.stats().delta_since(&before);
        for b in &mut self.bindings[mark..] {
            b.elab_nanos = nanos;
            b.kernel = delta;
        }
        result
    }

    fn bind_value(&mut self, name: &Name, term: Term, span: Span) -> SurfaceResult<()> {
        let typing = self
            .kernel(|tc, ctx| tc.synth_term(ctx, &term))
            .map_err(|e| self.terr(span, e))?;
        let describe = recmod_syntax::pretty::ty_to_string(
            &typing.ty,
            &mut recmod_syntax::pretty::Names::new(),
        );
        self.ctx.push(Entry::Term(typing.ty, typing.valuable));
        self.env.insert(
            name.clone(),
            Entity::Val {
                pos: self.depth() - 1,
            },
        );
        self.bindings.push(TopBinding {
            name: name.to_string(),
            describe,
            dynamic: term,
            static_part: None,
            is_structure: false,
            elab_nanos: 0,
            kernel: recmod_kernel::KernelStats::default(),
        });
        Ok(())
    }

    fn elab_plain_structure(&mut self, bind: &StrBind) -> SurfaceResult<()> {
        let es = self.elab_strbind_inner(bind)?;
        let module = Module::Struct(es.statics, es.dynamics);
        // Opaque ascription: seal the context entry.
        let module = match &bind.ann {
            Some((sig, true)) => {
                let tmpl = self.elab_sigexp(sig)?;
                Module::Seal(Box::new(module), Box::new(tmpl.instantiate(self.depth())))
            }
            _ => module,
        };
        let mt = self
            .kernel(|tc, ctx| tc.synth_module(ctx, &module))
            .map_err(|e| self.terr(bind.span, e))?;
        let split = recmod_phase::split_module(&self.tc, &mut self.ctx, module)
            .map_err(|e| self.terr(bind.span, e))?;
        let describe =
            recmod_syntax::pretty::sig_to_string(&mt.sig, &mut recmod_syntax::pretty::Names::new());
        self.ctx.push(Entry::Struct(mt.sig, mt.valuable));
        self.env.insert(
            bind.name.clone(),
            Entity::Struct(StructEntity {
                shape: es.shape,
                statics: Con::Fst(0),
                dynamics: Term::Snd(0),
                depth: self.depth(),
            }),
        );
        self.bindings.push(TopBinding {
            name: bind.name.to_string(),
            describe,
            dynamic: split.term,
            static_part: Some(split.con),
            is_structure: true,
            elab_nanos: 0,
            kernel: recmod_kernel::KernelStats::default(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Functors
    // ------------------------------------------------------------------

    fn elab_functor(
        &mut self,
        name: &Name,
        param: &Name,
        param_rec: bool,
        param_sig: &SigExp,
        body: &StrExp,
        span: Span,
    ) -> SurfaceResult<()> {
        // Elaborate the parameter signature (under a pseudo-binder for
        // an rds parameter, per §4's BuildList).
        let param_tmpl = if param_rec {
            self.elab_rds_sig(param, param_sig, span)?
        } else {
            self.elab_sigexp(param_sig)?
        };
        let param_internal = param_tmpl.instantiate(self.depth());
        self.kernel(|tc, ctx| tc.wf_sig(ctx, &param_internal))
            .map_err(|e| self.terr(param_sig.span(), e))?;
        let resolved = self
            .kernel(|tc, ctx| tc.resolve_sig(ctx, &param_internal))
            .map_err(|e| self.terr(param_sig.span(), e))?;
        let Sig::Struct(pk, pty) = resolved.clone() else {
            unreachable!("resolve_sig returns flat signatures")
        };

        // Elaborate the body under the parameter.
        let mark = self.env.mark();
        self.ctx.push(Entry::Struct(resolved, true));
        self.env.insert(
            param.clone(),
            Entity::Struct(StructEntity {
                shape: param_tmpl.shape.clone(),
                statics: Con::Fst(0),
                dynamics: Term::Snd(0),
                depth: self.depth(),
            }),
        );
        let body_depth = self.depth();
        let body_res = self.elab_strexp(body);
        self.ctx.truncate(self.depth() - 1);
        self.env.reset(mark);
        let body_es = body_res?;

        let pair = recmod_phase::hom::functor_pair(
            &pk,
            &pty,
            recmod_phase::Split {
                con: body_es.statics.clone(),
                term: body_es.dynamics.clone(),
            },
        );
        let module = Module::Struct(pair.con, pair.term);
        let mt = self
            .kernel(|tc, ctx| tc.synth_module(ctx, &module))
            .map_err(|e| self.terr(span, e))?;
        let split = recmod_phase::split_module(&self.tc, &mut self.ctx, module)
            .map_err(|e| self.terr(span, e))?;
        let describe =
            recmod_syntax::pretty::sig_to_string(&mt.sig, &mut recmod_syntax::pretty::Names::new());
        let param_record = param_tmpl;
        self.ctx.push(Entry::Struct(mt.sig, mt.valuable));
        self.env.insert(
            name.clone(),
            Entity::Functor(Rc::new(FunctorEntity {
                statics: Con::Fst(0),
                dynamics: Term::Snd(0),
                depth: self.depth(),
                param: param_record,
                result_shape: body_es.shape,
                body_con: body_es.statics,
                body_term: body_es.dynamics,
                body_depth,
            })),
        );
        self.bindings.push(TopBinding {
            name: name.to_string(),
            describe,
            dynamic: split.term,
            static_part: Some(split.con),
            is_structure: true,
            elab_nanos: 0,
            kernel: recmod_kernel::KernelStats::default(),
        });
        Ok(())
    }

    /// Elaborates a signature under a pseudo-binder for the named
    /// recursive structure, producing an rds template. The signature
    /// must be fully transparent as written (e.g. via datatype specs);
    /// an opaque `type t` inside requires the abstract-type extrusion of
    /// §4, available as [`crate::extrude`].
    pub(crate) fn elab_rds_sig(
        &mut self,
        self_name: &Name,
        sig: &SigExp,
        span: Span,
    ) -> SurfaceResult<SigTemplate> {
        let skeleton = self.sig_skeleton(sig)?;
        let stripped = skeleton_strip_kind(&skeleton);
        let mark = self.env.mark();
        self.ctx
            .push(Entry::Struct(Sig::Struct(hc(stripped), hc(Ty::Unit)), true));
        self.env.insert(
            self_name.clone(),
            Entity::Struct(StructEntity {
                shape: skeleton,
                statics: Con::Fst(0),
                dynamics: Term::Snd(0),
                depth: self.depth(),
            }),
        );
        let tmpl_res = self.elab_sigexp(sig);
        self.ctx.truncate(self.depth() - 1);
        self.env.reset(mark);
        let tmpl = tmpl_res?;
        let _ = span;
        Ok(SigTemplate {
            kind: tmpl.kind,
            ty: tmpl.ty,
            shape: tmpl.shape,
            depth: self.depth(),
            rds: true,
        })
    }

    // ------------------------------------------------------------------
    // Recursive structure groups
    // ------------------------------------------------------------------

    fn elab_rec_group(&mut self, binds: &[StrBind], span: Span) -> SurfaceResult<()> {
        let n = binds.len();
        let base = self.depth();

        // 1. Skeletons for every member, to pre-bind the names.
        let mut skeletons = Vec::with_capacity(n);
        for b in binds {
            let Some((sig, _)) = &b.ann else {
                return self.err(
                    b.span,
                    ErrorKind::Other(format!(
                        "recursive structure `{}` needs a signature annotation",
                        b.name
                    )),
                );
            };
            skeletons.push(self.sig_skeleton(sig)?);
        }
        let group_shape = Shape {
            fields: binds
                .iter()
                .zip(&skeletons)
                .map(|(b, s)| (b.name.clone(), Item::Struct(s.clone())))
                .collect(),
        };
        let stripped = skeleton_strip_kind(&group_shape);

        // 2. Pseudo-binder with the stripped signature; bind the names.
        let mark = self.env.mark();
        self.ctx
            .push(Entry::Struct(Sig::Struct(hc(stripped), hc(Ty::Unit)), true));
        for (i, b) in binds.iter().enumerate() {
            self.env.insert(
                b.name.clone(),
                Entity::Struct(StructEntity {
                    shape: skeletons[i].clone(),
                    statics: con_proj(Con::Fst(0), i, n),
                    dynamics: term_proj(Term::Snd(0), i, n),
                    depth: self.depth(),
                }),
            );
        }

        // 3. Elaborate the member signatures under the pseudo-binder.
        let mut tmpls = Vec::with_capacity(n);
        let mut sig_failure = None;
        for b in binds {
            let Some((sig, _)) = b.ann.as_ref() else {
                sig_failure = Some(SurfaceError::internal(
                    b.span,
                    "recursive structure binding lost its ascription",
                ));
                break;
            };
            match self.elab_sigexp(sig) {
                Ok(t) => tmpls.push(t),
                Err(e) => {
                    sig_failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = sig_failure {
            self.ctx.truncate(base);
            self.env.reset(mark);
            return Err(e);
        }

        // 4. Opaque (§3) or transparent (§4)? Opaque iff every member is
        //    `:>`-sealed and no signature mentions the recursive binder.
        let mentions = tmpls
            .iter()
            .any(|t| recmod_kernel::kind::kind_mentions(&t.kind, 0) || ty_mentions(&t.ty, 1));
        let all_opaque = binds.iter().all(|b| matches!(&b.ann, Some((_, true))));
        let opaque_group = all_opaque && !mentions;

        // 5. For the transparent interpretation, render every signature
        //    fully transparent by inspecting the bodies (§4.1).
        let outcome = if opaque_group {
            self.finish_rec_group(binds, &tmpls, &skeletons, false, span)
        } else {
            let transparified = self.transparify(binds, tmpls, span);
            match transparified {
                Ok(tmpls) => self.finish_rec_group(binds, &tmpls, &skeletons, true, span),
                Err(e) => Err(e),
            }
        };
        // `finish_rec_group` restores the context/environment itself on
        // both paths; only unwind here on early error.
        if outcome.is_err() && self.depth() > base {
            self.ctx.truncate(base);
            self.env.reset(mark);
        }
        outcome
    }

    /// Fills every opaque type slot of each member signature with the
    /// implementation type found in the corresponding body (§4.1: "the
    /// elaborator can produce the needed fully transparent signature by
    /// inspection of the module being defined").
    fn transparify(
        &mut self,
        binds: &[StrBind],
        tmpls: Vec<SigTemplate>,
        span: Span,
    ) -> SurfaceResult<Vec<SigTemplate>> {
        let mut out = Vec::with_capacity(tmpls.len());
        for (b, tmpl) in binds.iter().zip(tmpls) {
            if kind_is_transparent(&tmpl.kind) {
                out.push(tmpl);
                continue;
            }
            let (body_con, body_shape) = self.statics_of_strexp(&b.body)?;
            let kind = fill_opaque_slots(&tmpl.kind, &tmpl.shape, &body_con, &body_shape, 0)
                .map_err(|k| SurfaceError::new(span, k))?;
            out.push(SigTemplate { kind, ..tmpl });
        }
        Ok(out)
    }

    /// Builds the combined rds (or plain, for the opaque interpretation)
    /// signature, elaborates the bodies under it, forms the `fix`, checks
    /// it, and binds the member names.
    fn finish_rec_group(
        &mut self,
        binds: &[StrBind],
        tmpls: &[SigTemplate],
        _skeletons: &[Shape],
        transparent: bool,
        span: Span,
    ) -> SurfaceResult<()> {
        let n = binds.len();
        // Context currently has the pseudo-binder on top.
        let base = self.depth() - 1;
        let env_mark_outer = self.env.mark();

        // Combined kind: Σ of the member kinds (member i sits under i
        // extra Σ binders).
        let comb_kind = kind_tuple(
            tmpls
                .iter()
                .enumerate()
                .map(|(i, t)| shift_kind(&t.kind, i as isize, 0))
                .collect(),
        );
        // Combined ty: product of the member σ's with each member's α
        // replaced by the corresponding projection of the combined α.
        let comb_ty = ty_tuple(
            tmpls
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let shifted = shift_ty(&t.ty, 1, 1);
                    subst_con_ty(&shifted, &con_proj(Con::Var(0), i, n))
                })
                .collect(),
        );
        let group_shape = Shape {
            fields: binds
                .iter()
                .zip(tmpls)
                .map(|(b, t)| (b.name.clone(), Item::Struct(t.shape.clone())))
                .collect(),
        };

        // Pop the pseudo-binder; its index becomes the ρ binder (rds) or
        // is stripped entirely (opaque: the signatures don't mention it).
        self.ctx.truncate(base);
        self.env.reset(env_mark_outer);
        // NOTE: env entries for member names were inside the pseudo scope
        // and are gone; rebind below.

        let ann_sig = if transparent {
            Sig::Rds(Box::new(Sig::Struct(hc(comb_kind), hc(comb_ty))))
        } else {
            Sig::Struct(
                hc(shift_kind(&comb_kind, -1, 0)),
                hc(shift_ty(&comb_ty, -1, 1)),
            )
        };
        self.kernel(|tc, ctx| tc.wf_sig(ctx, &ann_sig))
            .map_err(|e| self.terr(span, e))?;
        let resolved = self
            .kernel(|tc, ctx| tc.resolve_sig(ctx, &ann_sig))
            .map_err(|e| self.terr(span, e))?;

        // Elaborate the bodies under the recursive assumption.
        let mark = self.env.mark();
        self.ctx.push(Entry::Struct(resolved, false));
        for (i, (b, t)) in binds.iter().zip(tmpls).enumerate() {
            self.env.insert(
                b.name.clone(),
                Entity::Struct(StructEntity {
                    shape: t.shape.clone(),
                    statics: con_proj(Con::Fst(0), i, n),
                    dynamics: term_proj(Term::Snd(0), i, n),
                    depth: self.depth(),
                }),
            );
        }
        let mut members = Vec::with_capacity(n);
        let mut failure = None;
        for (b, t) in binds.iter().zip(tmpls) {
            let es = match self.elab_strexp(&b.body) {
                Ok(es) => es,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            match self.coerce(es, &t.shape, b.span) {
                Ok(c) => members.push(c),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.ctx.truncate(base);
        self.env.reset(mark);
        if let Some(e) = failure {
            return Err(e);
        }

        let (statics, dynamics) = members.into_iter().map(|m| (m.statics, m.dynamics)).unzip();
        let body_mod = Module::Struct(con_tuple(statics), term_tuple(dynamics));
        let fix_mod = Module::Fix(Box::new(ann_sig), Box::new(body_mod));
        let mt = self
            .kernel(|tc, ctx| tc.synth_module(ctx, &fix_mod))
            .map_err(|e| self.terr(span, e))?;
        let split = recmod_phase::split_module(&self.tc, &mut self.ctx, fix_mod)
            .map_err(|e| self.terr(span, e))?;
        let describe =
            recmod_syntax::pretty::sig_to_string(&mt.sig, &mut recmod_syntax::pretty::Names::new());

        let hidden = self.fresh("rec");
        self.ctx.push(Entry::Struct(mt.sig, true));
        self.env.insert(
            hidden.as_str().into(),
            Entity::Struct(StructEntity {
                shape: group_shape,
                statics: Con::Fst(0),
                dynamics: Term::Snd(0),
                depth: self.depth(),
            }),
        );
        for (i, (b, t)) in binds.iter().zip(tmpls).enumerate() {
            self.env.insert(
                b.name.clone(),
                Entity::Struct(StructEntity {
                    shape: t.shape.clone(),
                    statics: con_proj(Con::Fst(0), i, n),
                    dynamics: term_proj(Term::Snd(0), i, n),
                    depth: self.depth(),
                }),
            );
        }
        self.bindings.push(TopBinding {
            name: hidden,
            describe,
            dynamic: split.term,
            static_part: Some(split.con),
            is_structure: true,
            elab_nanos: 0,
            kernel: recmod_kernel::KernelStats::default(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Static-only elaboration (for transparification) and skeletons
    // ------------------------------------------------------------------

    /// Computes just the static part (constructor tuple + shape) of a
    /// structure expression, without elaborating any terms. Used to fill
    /// opaque signature slots by body inspection.
    pub(crate) fn statics_of_strexp(&mut self, se: &StrExp) -> SurfaceResult<(Con, Shape)> {
        match se {
            StrExp::Path(p) => {
                let st = self.resolve_struct(p)?;
                Ok((st.statics, st.shape))
            }
            StrExp::Ascribe {
                body, sig, span, ..
            } => {
                let tmpl = self.elab_sigexp(sig)?;
                let (c, shape) = self.statics_of_strexp(body)?;
                let coerced = self.coerce_statics(&c, &shape, &tmpl.shape, *span)?;
                Ok((coerced, tmpl.shape))
            }
            StrExp::App { functor, arg, span } => {
                let Some(Entity::Functor(fe)) = self.env.lookup(functor) else {
                    return self.err(*span, ErrorKind::Unbound(functor.to_string()));
                };
                let fe = Rc::clone(fe);
                let (ac, ashape) = self.statics_of_strexp(arg)?;
                let coerced = self.coerce_statics(&ac, &ashape, &fe.param.shape, *span)?;
                let delta = self.depth() as isize + 1 - fe.body_depth as isize;
                let body_con = shift_con(&fe.body_con, delta, 1);
                let parts = recmod_syntax::subst::ModParts {
                    fst: coerced,
                    snd: None,
                };
                Ok((
                    recmod_syntax::subst::subst_mod_con(&body_con, &parts),
                    fe.result_shape.clone(),
                ))
            }
            StrExp::Body(decs, _span) => {
                let mark = self.env.mark();
                let base = self.depth();
                let mut statics: Vec<Con> = Vec::new();
                let mut fields = Vec::new();
                let mut go = || -> SurfaceResult<()> {
                    for d in decs {
                        match d {
                            Dec::Type { name, def, .. } => {
                                let con = self.elab_ty(def)?;
                                self.env.insert(
                                    name.clone(),
                                    Entity::TyAlias {
                                        con: con.clone(),
                                        depth: self.depth(),
                                    },
                                );
                                statics.push(con);
                                fields.push((name.clone(), Item::Ty));
                            }
                            Dec::Datatype { name, ctors, .. } => {
                                let (mu, info) = self.elab_datatype_con(name, ctors)?;
                                self.env.insert(
                                    name.clone(),
                                    Entity::Data {
                                        con: mu.clone(),
                                        depth: self.depth(),
                                        info: info.clone(),
                                    },
                                );
                                statics.push(mu);
                                fields.push((name.clone(), Item::Data(info.clone())));
                                for (cname, _) in info.ctors.iter() {
                                    fields.push((cname.clone(), Item::Val));
                                }
                            }
                            Dec::Val { name, .. } | Dec::Fun { name, .. } => {
                                fields.push((name.clone(), Item::Val));
                            }
                            Dec::Structure(bind) => {
                                let (c, shape) = self.statics_of_strexp(&bind.body)?;
                                self.env.insert(
                                    bind.name.clone(),
                                    Entity::Struct(StructEntity {
                                        shape: shape.clone(),
                                        statics: c.clone(),
                                        dynamics: Term::Star,
                                        depth: self.depth(),
                                    }),
                                );
                                statics.push(c);
                                fields.push((bind.name.clone(), Item::Struct(shape)));
                            }
                        }
                    }
                    Ok(())
                };
                let r = go();
                self.ctx.truncate(base);
                self.env.reset(mark);
                r?;
                Ok((
                    con_tuple(statics),
                    Shape {
                        fields: fields.into(),
                    },
                ))
            }
        }
    }

    /// The shape of a signature expression, computed without elaborating
    /// any types (names and item kinds only).
    pub(crate) fn sig_skeleton(&mut self, se: &SigExp) -> SurfaceResult<Shape> {
        match se {
            SigExp::Name(name, span) => match self.env.lookup(name) {
                Some(Entity::SigDef(t)) => Ok(t.shape.clone()),
                Some(_) => self.err(
                    *span,
                    ErrorKind::WrongEntity {
                        name: name.to_string(),
                        expected: "a signature",
                    },
                ),
                None => self.err(*span, ErrorKind::Unbound(name.to_string())),
            },
            SigExp::WhereType { base, .. } => self.sig_skeleton(base),
            SigExp::Body(specs, _) => {
                let mut fields = Vec::new();
                for spec in specs {
                    match spec {
                        Spec::Type { name, .. } => fields.push((name.clone(), Item::Ty)),
                        Spec::Datatype { name, ctors, .. } => {
                            let info = crate::shape::DataInfo {
                                ctors: ctors
                                    .iter()
                                    .map(|c| (c.name.clone(), c.arg.is_some()))
                                    .collect(),
                            };
                            fields.push((name.clone(), Item::Data(info)));
                            for c in ctors {
                                fields.push((c.name.clone(), Item::Val));
                            }
                        }
                        Spec::Val { name, .. } => fields.push((name.clone(), Item::Val)),
                        Spec::Structure { name, sig, .. } => {
                            let sub = self.sig_skeleton(sig)?;
                            fields.push((name.clone(), Item::Struct(sub)));
                        }
                    }
                }
                Ok(Shape {
                    fields: fields.into(),
                })
            }
        }
    }
}

/// The all-opaque frame kind of a shape: `T` per type slot, recursively.
fn skeleton_strip_kind(shape: &Shape) -> Kind {
    kind_tuple(
        shape
            .static_fields()
            .map(|(_, item, _)| match item {
                Item::Ty | Item::Data(_) => Kind::Type,
                Item::Struct(sub) => skeleton_strip_kind(sub),
                Item::Val => unreachable!("static fields only"),
            })
            .collect(),
    )
}

/// Is every type slot of the kind transparent already?
fn kind_is_transparent(k: &Kind) -> bool {
    recmod_kernel::singleton::fully_transparent(k)
}

/// Replaces every opaque (`T`) slot in `kind` (laid out by `sig_shape`)
/// with a singleton of the corresponding component of the body statics.
fn fill_opaque_slots(
    kind: &Kind,
    sig_shape: &Shape,
    body_con: &Con,
    body_shape: &Shape,
    crossed: usize,
) -> Result<Kind, ErrorKind> {
    fn go(
        kind: &Kind,
        slots: &[(Name, ItemKind)],
        idx: usize,
        body_con: &Con,
        body_shape: &Shape,
        crossed: usize,
    ) -> Result<Kind, ErrorKind> {
        if slots.is_empty() {
            return Ok(kind.clone());
        }
        let last = idx == slots.len() - 1;
        let (here, rest) = if last {
            (kind.clone(), None)
        } else {
            let Kind::Sigma(k1, k2) = kind else {
                return Err(ErrorKind::Other(
                    "signature kind shape mismatch".to_string(),
                ));
            };
            ((**k1).clone(), Some((**k2).clone()))
        };
        let (name, item) = &slots[idx];
        let filled = fill_one(&here, name, item, body_con, body_shape, crossed)?;
        match rest {
            None => Ok(filled),
            Some(k2) => {
                let rest_filled = go(&k2, slots, idx + 1, body_con, body_shape, crossed + 1)?;
                Ok(Kind::Sigma(hc(filled), hc(rest_filled)))
            }
        }
    }

    #[derive(Clone)]
    enum ItemKind {
        Leaf,
        Sub(Shape),
    }

    fn fill_one(
        kind: &Kind,
        name: &str,
        item: &ItemKind,
        body_con: &Con,
        body_shape: &Shape,
        crossed: usize,
    ) -> Result<Kind, ErrorKind> {
        match item {
            ItemKind::Leaf => match kind {
                Kind::Type => {
                    let Some(slot) = body_shape.static_slot(name) else {
                        return Err(ErrorKind::MissingComponent {
                            name: name.to_string(),
                        });
                    };
                    let comp = con_proj(
                        shift_con(body_con, crossed as isize, 0),
                        slot,
                        body_shape.static_len(),
                    );
                    Ok(Kind::Singleton(hc(comp)))
                }
                other => Ok(other.clone()),
            },
            ItemKind::Sub(sub_sig_shape) => {
                let Some(slot) = body_shape.static_slot(name) else {
                    return Err(ErrorKind::MissingComponent {
                        name: name.to_string(),
                    });
                };
                let Some(Item::Struct(sub_body_shape)) = body_shape.find(name) else {
                    return Err(ErrorKind::WrongEntity {
                        name: name.to_string(),
                        expected: "a substructure",
                    });
                };
                let sub_con = con_proj(
                    shift_con(body_con, crossed as isize, 0),
                    slot,
                    body_shape.static_len(),
                );
                fill_opaque_slots(kind, sub_sig_shape, &sub_con, sub_body_shape, 0)
            }
        }
    }

    let slots: Vec<(Name, ItemKind)> = sig_shape
        .static_fields()
        .map(|(n, item, _)| {
            (
                n.clone(),
                match item {
                    Item::Struct(s) => ItemKind::Sub(s.clone()),
                    _ => ItemKind::Leaf,
                },
            )
        })
        .collect();
    let _ = crossed;
    go(kind, &slots, 0, body_con, body_shape, 0)
}

/// Does the type mention the (implicitly-bound-relative) index `target`?
/// `target` is the index as seen at the type's root (e.g. `1` for the
/// pseudo-binder underneath a signature's α binder).
fn ty_mentions(t: &Ty, target: usize) -> bool {
    struct Probe {
        target: usize,
        hit: bool,
    }
    impl VarMap for Probe {
        fn cvar(&mut self, d: usize, i: usize) -> Con {
            if i == self.target + d {
                self.hit = true;
            }
            Con::Var(i)
        }
        fn tvar(&mut self, d: usize, i: usize) -> Term {
            if i == self.target + d {
                self.hit = true;
            }
            Term::Var(i)
        }
        fn fst(&mut self, d: usize, i: usize) -> Con {
            if i == self.target + d {
                self.hit = true;
            }
            Con::Fst(i)
        }
        fn snd(&mut self, d: usize, i: usize) -> Term {
            if i == self.target + d {
                self.hit = true;
            }
            Term::Snd(i)
        }
        fn mvar(&mut self, d: usize, i: usize) -> Module {
            if i == self.target + d {
                self.hit = true;
            }
            Module::Var(i)
        }
    }
    let mut probe = Probe { target, hit: false };
    let _ = recmod_syntax::map::map_ty(t, 0, &mut probe);
    probe.hit
}
