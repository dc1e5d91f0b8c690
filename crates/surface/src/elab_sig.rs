//! Elaboration of signature expressions into [`SigTemplate`]s.
//!
//! The static components of a signature become a right-nested dependent
//! `Σ` kind (pass 1: each component's kind may mention the earlier
//! components through their `Σ` binders); the dynamic components become
//! a product type under the signature's single constructor binder `α`,
//! with type references compiled to projections of `α` (pass 2).
//!
//! Datatype specifications are interpreted *structurally* (paper §4):
//! the spec `datatype t = NIL | CONS of int * List.t` contributes the
//! transparent kind `Q(μα:T. 1 + int × List.t)` plus total-function
//! value components for the constructors.

use recmod_kernel::Entry;
use recmod_syntax::ast::{Con, Kind, Term, Ty};
use recmod_syntax::intern::hc;
use recmod_syntax::subst::{shift_con, subst_con_ty};

use crate::ast::{SigExp, Spec};
use crate::elab::Elaborator;
use crate::env::{Entity, SigTemplate, StructEntity};
use crate::error::{ErrorKind, Span, SurfaceError, SurfaceResult};
use crate::shape::{con_proj, kind_tuple, ty_tuple, Item, Shape};

impl Elaborator {
    /// Elaborates a signature expression at the current depth. The
    /// result is a non-rds template (an rds wrapper is added by the
    /// recursive-binding elaboration, which supplies the ρ binder).
    pub fn elab_sigexp(&mut self, se: &SigExp) -> SurfaceResult<SigTemplate> {
        let _j = recmod_telemetry::judgement_span("surface.elab_sigexp");
        self.with_depth(se.span(), |this| this.elab_sigexp_inner(se))
    }

    fn elab_sigexp_inner(&mut self, se: &SigExp) -> SurfaceResult<SigTemplate> {
        match se {
            SigExp::Name(name, span) => match self.env.lookup(name) {
                Some(Entity::SigDef(t)) => Ok(self.retarget_template(t.clone())),
                Some(_) => self.err(
                    *span,
                    ErrorKind::WrongEntity {
                        name: name.clone(),
                        expected: "a signature",
                    },
                ),
                None => self.err(*span, ErrorKind::Unbound(name.clone())),
            },
            SigExp::Body(specs, span) => self.elab_sig_body(specs, *span),
            SigExp::WhereType {
                base,
                path,
                def,
                span,
            } => {
                let tmpl = self.elab_sigexp(base)?;
                let con = self.elab_ty(def)?;
                self.refine_template(tmpl, &path.parts, &con, *span)
            }
        }
    }

    /// Shifts a stored template to the current depth.
    pub(crate) fn retarget_template(&self, t: SigTemplate) -> SigTemplate {
        let delta = crate::env::depth_delta(t.depth, self.depth());
        let rho = usize::from(t.rds);
        SigTemplate {
            kind: recmod_syntax::subst::shift_kind(&t.kind, delta, rho),
            ty: recmod_syntax::subst::shift_ty(&t.ty, delta, rho + 1),
            shape: t.shape,
            depth: self.depth(),
            rds: t.rds,
        }
    }

    fn elab_sig_body(&mut self, specs: &[Spec], span: Span) -> SurfaceResult<SigTemplate> {
        // Duplicate check.
        let mut seen = std::collections::HashSet::new();
        for spec in specs {
            if !seen.insert(spec.name().to_string()) {
                return self.err(spec.span(), ErrorKind::Duplicate(spec.name().to_string()));
            }
        }
        let base_depth = self.depth();

        // ---- pass 1: static kinds (under accumulating Σ binders) ----
        let mark = self.env.mark();
        let mut slot_kinds: Vec<Kind> = Vec::new();
        let mut fields: Vec<(String, Item)> = Vec::new();
        // Substructure σ's: (name, σ under its own α, Σ binders in scope
        // when it was elaborated).
        let mut sub_tys: Vec<(String, Ty, usize)> = Vec::new();
        let mut pass1 = || -> SurfaceResult<()> {
            for spec in specs {
                match spec {
                    Spec::Type { name, def, .. } => {
                        let k = match def {
                            Some(t) => Kind::Singleton(hc(self.elab_ty(t)?)),
                            None => Kind::Type,
                        };
                        self.push_static_slot(name, k.clone(), None);
                        slot_kinds.push(k);
                        fields.push((name.clone(), Item::Ty));
                    }
                    Spec::Datatype { name, ctors, .. } => {
                        let (mu, info) = self.elab_datatype_con(name, ctors)?;
                        let k = Kind::Singleton(hc(mu));
                        self.push_static_slot(name, k.clone(), None);
                        slot_kinds.push(k);
                        fields.push((name.clone(), Item::Data(info.clone())));
                        for (cname, _) in info.ctors.iter() {
                            fields.push((cname.clone(), Item::Val));
                        }
                    }
                    Spec::Val { name, .. } => {
                        fields.push((name.clone(), Item::Val));
                    }
                    Spec::Structure { name, sig, .. } => {
                        let sub = self.elab_sigexp(sig)?;
                        if sub.rds {
                            return self.err(
                                spec.span(),
                                ErrorKind::Other(
                                    "recursively-dependent substructure signatures are not \
                                     supported"
                                        .to_string(),
                                ),
                            );
                        }
                        let k = sub.kind.clone();
                        let binders_before = slot_kinds.len();
                        self.push_static_slot(name, k.clone(), Some(sub.shape.clone()));
                        slot_kinds.push(k);
                        sub_tys.push((name.clone(), sub.ty.clone(), binders_before));
                        fields.push((name.clone(), Item::Struct(sub.shape)));
                    }
                }
            }
            Ok(())
        };
        let r1 = pass1();
        self.ctx.truncate(base_depth);
        self.env.reset(mark);
        r1?;
        let kind = kind_tuple(slot_kinds);
        let shape = Shape {
            fields: fields.into(),
        };

        // ---- pass 2: dynamic types under the single α binder ----
        self.ctx.push(Entry::Con(hc(kind.clone())));
        let alpha_depth = self.depth();
        let mark2 = self.env.mark();
        let n_static = shape.static_len();
        // Rebind every static field name to a projection of α.
        for (name, item, slot) in shape.static_fields() {
            let proj = con_proj(Con::Var(0), slot, n_static);
            match item {
                Item::Ty => self.env.insert(
                    name.to_string(),
                    Entity::TyAlias {
                        con: proj,
                        depth: alpha_depth,
                    },
                ),
                Item::Data(info) => self.env.insert(
                    name.to_string(),
                    Entity::Data {
                        con: proj,
                        depth: alpha_depth,
                        info: info.clone(),
                    },
                ),
                Item::Struct(sub_shape) => self.env.insert(
                    name.to_string(),
                    Entity::Struct(StructEntity {
                        shape: sub_shape.clone(),
                        statics: proj,
                        // Signatures have no dynamic components to hand
                        // out during elaboration of *types*; a value
                        // reference through this entity is an error that
                        // the kernel would catch, so a placeholder is safe.
                        dynamics: Term::Star,
                        depth: alpha_depth,
                    }),
                ),
                Item::Val => unreachable!("static_fields yields no Val items"),
            }
        }
        let mut dyn_tys: Vec<Ty> = Vec::new();
        let mut pass2 = || -> SurfaceResult<()> {
            for spec in specs {
                match spec {
                    Spec::Type { .. } => {}
                    Spec::Datatype { name, ctors, span } => {
                        // Constructor value types: Cᵢ : argᵢ → t (total).
                        let t_slot = shape.static_slot(name).ok_or_else(|| {
                            SurfaceError::internal(*span, "datatype spec without a static slot")
                        })?;
                        let t_con = con_proj(Con::Var(0), t_slot, n_static);
                        for c in ctors {
                            let ty = match &c.arg {
                                Some(arg_ty) => {
                                    // Elaborate with the datatype name bound
                                    // to the α projection (already in env).
                                    let arg = self.elab_ty(arg_ty)?;
                                    Ty::total(Ty::con(arg), Ty::con(t_con.clone()))
                                }
                                None => Ty::con(t_con.clone()),
                            };
                            dyn_tys.push(ty);
                        }
                        let _ = span;
                    }
                    Spec::Val { ty, .. } => {
                        let con = self.elab_ty(ty)?;
                        dyn_tys.push(Ty::con(con));
                    }
                    Spec::Structure { name, span, .. } => {
                        let slot = shape.static_slot(name).ok_or_else(|| {
                            SurfaceError::internal(*span, "substructure spec without a static slot")
                        })?;
                        let proj = con_proj(Con::Var(0), slot, n_static);
                        let (_, sub_ty, binders_before) =
                            sub_tys.iter().find(|(n, _, _)| n == name).ok_or_else(|| {
                                SurfaceError::internal(
                                    *span,
                                    "substructure spec not recorded in pass 1",
                                )
                            })?;
                        // The substructure's σ was elaborated in pass 1
                        // under `binders_before` sibling Σ binders plus its
                        // own α_sub. Remap sibling references to α
                        // projections and α_sub to this slot's projection.
                        let remapped =
                            remap_slot_refs_ty(sub_ty, *binders_before, n_static, &shape);
                        dyn_tys.push(subst_con_ty(&remapped, &proj));
                    }
                }
            }
            Ok(())
        };
        let r2 = pass2();
        self.ctx.truncate(base_depth);
        self.env.reset(mark2.min(mark));
        debug_assert_eq!(self.depth(), base_depth);
        r2?;
        let ty = ty_tuple(dyn_tys);

        let _ = span;
        Ok(SigTemplate {
            kind,
            ty,
            shape,
            depth: base_depth,
            rds: false,
        })
    }

    /// Pushes a `Σ` binder for a static slot and binds its surface name.
    fn push_static_slot(&mut self, name: &str, kind: Kind, sub: Option<Shape>) {
        self.ctx.push(Entry::Con(hc(kind)));
        match sub {
            None => {
                // Both plain types and datatypes resolve as type aliases
                // during pass 1 (constructor metadata is not needed in
                // kinds).
                self.env.insert(
                    name.to_string(),
                    Entity::TyAlias {
                        con: Con::Var(0),
                        depth: self.depth(),
                    },
                );
            }
            Some(shape) => {
                self.env.insert(
                    name.to_string(),
                    Entity::Struct(StructEntity {
                        shape,
                        statics: Con::Var(0),
                        dynamics: Term::Star,
                        depth: self.depth(),
                    }),
                );
            }
        }
    }

    /// `SIG where type p = c`: replaces the named component's kind with
    /// `Q(c)`. The component must currently be opaque (`T`).
    pub(crate) fn refine_template(
        &mut self,
        tmpl: SigTemplate,
        parts: &[String],
        def: &Con,
        span: Span,
    ) -> SurfaceResult<SigTemplate> {
        let kind = refine_kind(&tmpl.kind, &tmpl.shape, parts, def, 0)
            .map_err(|k| SurfaceError::new(span, k))?;
        Ok(SigTemplate { kind, ..tmpl })
    }
}

/// Rewrites the kind of the component at `parts` to `Q(def)`.
/// `crossed` counts the `Σ` binders already crossed (the definition is
/// shifted by that amount when inserted).
fn refine_kind(
    kind: &Kind,
    shape: &Shape,
    parts: &[String],
    def: &Con,
    crossed: usize,
) -> Result<Kind, ErrorKind> {
    let name = &parts[0];
    let Some(slot) = shape.static_slot(name) else {
        return Err(ErrorKind::Unbound(name.clone()));
    };
    let n = shape.static_len();
    let Some(item) = shape.find(name) else {
        return Err(ErrorKind::Type(recmod_kernel::TypeError::Internal(
            "static slot without a shape field".to_string(),
        )));
    };
    rewrite_sigma(kind, slot, n, &mut |target, inner_crossed| {
        let total = crossed + inner_crossed;
        if parts.len() == 1 {
            match target {
                Kind::Type => Ok(Kind::Singleton(hc(shift_con(def, total as isize, 0)))),
                other => Err(ErrorKind::Other(format!(
                    "`where type {name}` applies to an opaque type component, found kind {}",
                    recmod_syntax::pretty::kind_to_string(
                        other,
                        &mut recmod_syntax::pretty::Names::new()
                    )
                ))),
            }
        } else {
            match item {
                Item::Struct(sub_shape) => refine_kind(target, sub_shape, &parts[1..], def, total),
                _ => Err(ErrorKind::WrongEntity {
                    name: name.clone(),
                    expected: "a substructure",
                }),
            }
        }
    })
}

/// Navigates a right-nested `Σ` chain to slot `slot` of `n` and rewrites
/// it with `f` (which receives the number of binders crossed).
fn rewrite_sigma(
    kind: &Kind,
    slot: usize,
    n: usize,
    f: &mut dyn FnMut(&Kind, usize) -> Result<Kind, ErrorKind>,
) -> Result<Kind, ErrorKind> {
    fn go(
        kind: &Kind,
        slot: usize,
        remaining: usize,
        crossed: usize,
        f: &mut dyn FnMut(&Kind, usize) -> Result<Kind, ErrorKind>,
    ) -> Result<Kind, ErrorKind> {
        if remaining == 1 {
            debug_assert_eq!(slot, 0);
            return f(kind, crossed);
        }
        let Kind::Sigma(k1, k2) = kind else {
            return Err(ErrorKind::Other(
                "signature kind shape mismatch".to_string(),
            ));
        };
        if slot == 0 {
            Ok(Kind::Sigma(hc(f(k1, crossed)?), k2.clone()))
        } else {
            let rest = go(k2, slot - 1, remaining - 1, crossed + 1, f)?;
            Ok(Kind::Sigma(k1.clone(), hc(rest)))
        }
    }
    if n == 0 {
        return Err(ErrorKind::Other(
            "empty signature has no type components".to_string(),
        ));
    }
    go(kind, slot, n, 0, f)
}

/// Remaps a substructure's pass-1 type (expressed under `binders_before`
/// sibling Σ binders plus its own α_sub) into the pass-2 context (the
/// single signature binder α plus α_sub): sibling binder references
/// become projections of α, outer references shift accordingly.
fn remap_slot_refs_ty(ty: &Ty, binders_before: usize, n_static: usize, shape: &Shape) -> Ty {
    struct Remap<'a> {
        s: usize,
        n: usize,
        shape: &'a Shape,
    }
    impl Remap<'_> {
        /// New index for a non-slot occurrence, or `None` when the
        /// occurrence hits a sibling slot binder.
        fn slot_or_index(&self, d: usize, i: usize) -> Result<usize, usize> {
            // Original context (innermost first): α_sub, slot_{s-1}, …,
            // slot_0, outer…  Target: α_sub, α, outer…
            let rel = i as isize - d as isize;
            if rel <= 0 {
                Ok(i) // bound within the traversal or α_sub
            } else if (rel as usize) <= self.s {
                Err(self.s - rel as usize) // sibling slot index
            } else {
                Ok((i + 1) - self.s) // outer: drop s binders, add α
            }
        }
        fn alpha_at(&self, d: usize) -> Con {
            // α sits just outside α_sub: index d+1 at depth d.
            Con::Var(d + 1)
        }
    }
    impl recmod_syntax::map::VarMap for Remap<'_> {
        fn cvar(&mut self, d: usize, i: usize) -> Con {
            match self.slot_or_index(d, i) {
                Ok(j) => Con::Var(j),
                Err(slot) => {
                    // Translate the binder position to a *static slot*
                    // projection. Binder k corresponds to the k-th static
                    // slot of the enclosing signature.
                    let _ = self.shape;
                    con_proj(self.alpha_at(d), slot, self.n)
                }
            }
        }
        fn tvar(&mut self, d: usize, i: usize) -> Term {
            match self.slot_or_index(d, i) {
                Ok(j) => Term::Var(j),
                Err(_) => unreachable!("term occurrence of a Σ binder"),
            }
        }
        fn fst(&mut self, d: usize, i: usize) -> Con {
            match self.slot_or_index(d, i) {
                Ok(j) => Con::Fst(j),
                Err(_) => unreachable!("Fst occurrence of a Σ binder"),
            }
        }
        fn snd(&mut self, d: usize, i: usize) -> Term {
            match self.slot_or_index(d, i) {
                Ok(j) => Term::Snd(j),
                Err(_) => unreachable!("snd occurrence of a Σ binder"),
            }
        }
        fn mvar(&mut self, d: usize, i: usize) -> recmod_syntax::ast::Module {
            match self.slot_or_index(d, i) {
                Ok(j) => recmod_syntax::ast::Module::Var(j),
                Err(_) => unreachable!("module occurrence of a Σ binder"),
            }
        }
    }
    recmod_syntax::map::map_ty(
        ty,
        0,
        &mut Remap {
            s: binders_before,
            n: n_static,
            shape,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TopDec;
    use crate::parser::parse;

    fn elab_named_sig(src: &str) -> SurfaceResult<SigTemplate> {
        let p = parse(src).expect("parse");
        let TopDec::Signature { sig, .. } = &p.decls[0] else {
            panic!("expected signature")
        };
        let mut e = Elaborator::new();
        e.elab_sigexp(sig)
    }

    #[test]
    fn list_signature_layout() {
        let t = elab_named_sig(
            "signature LIST = sig
               type t
               val nil : t
               val null : t -> bool
               val cons : int * t -> t
               val uncons : t -> int * t
             end",
        )
        .unwrap();
        assert_eq!(t.kind, Kind::Type);
        assert_eq!(t.shape.static_len(), 1);
        assert_eq!(t.shape.dyn_len(), 4);
        // ty = Con(α) × (Con(α ⇀ bool) × …): first val's type mentions α.
        let Ty::Prod(first, _) = &t.ty else {
            panic!("{:?}", t.ty)
        };
        assert_eq!(**first, Ty::con(Con::Var(0)));
    }

    #[test]
    fn transparent_type_spec_gives_singleton() {
        let t = elab_named_sig("signature S = sig type t = int val x : t end").unwrap();
        assert_eq!(t.kind, Kind::Singleton(recmod_syntax::intern::hc(Con::Int)));
        // x : t resolves to the α projection (arity-1 tuple: α itself).
        assert_eq!(t.ty, Ty::con(Con::Var(0)));
    }

    #[test]
    fn dependent_type_specs() {
        // type t; type u = t * t — the second kind mentions the first Σ binder.
        let t = elab_named_sig("signature S = sig type t type u = t * t end").unwrap();
        let Kind::Sigma(k1, k2) = &t.kind else {
            panic!("{:?}", t.kind)
        };
        assert_eq!(**k1, Kind::Type);
        assert_eq!(
            **k2,
            Kind::Singleton(recmod_syntax::intern::hc(Con::Prod(
                recmod_syntax::intern::hc(Con::Var(0)),
                recmod_syntax::intern::hc(Con::Var(0))
            )))
        );
    }

    #[test]
    fn datatype_spec_is_structural() {
        let t =
            elab_named_sig("signature L = sig datatype t = NIL | CONS of int * t val x : t end")
                .unwrap();
        let Kind::Singleton(mu) = &t.kind else {
            panic!("{:?}", t.kind)
        };
        assert!(matches!(&**mu, Con::Mu(_, _)));
        // Constructors contribute value components: NIL, CONS, then x.
        assert_eq!(t.shape.dyn_len(), 3);
    }

    #[test]
    fn where_type_refines_opaque_component() {
        let src = "signature S = sig type t type u val x : t end";
        let p = parse(src).unwrap();
        let TopDec::Signature { sig, .. } = &p.decls[0] else {
            panic!()
        };
        let mut e = Elaborator::new();
        let tmpl = e.elab_sigexp(sig).unwrap();
        let refined = e
            .refine_template(tmpl, &["u".to_string()], &Con::Bool, Span::default())
            .unwrap();
        let Kind::Sigma(_, k2) = &refined.kind else {
            panic!()
        };
        assert_eq!(**k2, Kind::Singleton(recmod_syntax::intern::hc(Con::Bool)));
        // Refining an already-transparent component fails.
        let again = e.refine_template(refined, &["u".to_string()], &Con::Int, Span::default());
        assert!(again.is_err());
    }

    #[test]
    fn duplicate_spec_rejected() {
        assert!(matches!(
            elab_named_sig("signature S = sig type t type t end"),
            Err(SurfaceError {
                kind: ErrorKind::Duplicate(_),
                ..
            })
        ));
    }

    #[test]
    fn substructure_signature() {
        let t = elab_named_sig(
            "signature S = sig
               structure Sub : sig type v val get : v end
               val use : Sub.v -> int
             end",
        )
        .unwrap();
        assert_eq!(t.shape.static_len(), 1);
        assert_eq!(t.shape.dyn_len(), 2);
        // use : Sub.v -> int where Sub.v projects α (arity-1 outer tuple,
        // arity-1 inner tuple → just α).
        let Ty::Prod(_, second) = &t.ty else {
            panic!("{:?}", t.ty)
        };
        assert_eq!(
            **second,
            Ty::con(Con::Arrow(
                recmod_syntax::intern::hc(Con::Var(0)),
                recmod_syntax::intern::hc(Con::Int)
            ))
        );
    }

    #[test]
    fn elaboration_restores_depth() {
        let mut e = Elaborator::new();
        let p = parse("signature S = sig type t val x : t end").unwrap();
        let TopDec::Signature { sig, .. } = &p.decls[0] else {
            panic!()
        };
        let _ = e.elab_sigexp(sig).unwrap();
        assert_eq!(e.depth(), 0);
    }
}
