//! The elaborator: external language → internal language.
//!
//! Elaboration follows Harper–Stone in outline: structures become pairs
//! of right-nested tuples (static constructors / dynamic terms) with a
//! [`Shape`](crate::shape::Shape) recording the field layout; signatures become
//! `[α:κ.σ]` templates; functors become HMM pairs; `structure rec`
//! becomes the internal `fix(s:S.M)` with the annotation rendered as a
//! recursively-dependent signature exactly as the paper's §4.1
//! prescribes ("the elaborator implicitly renders every recursively
//! dependent signature to be fully transparent … by inspection of the
//! module being defined").
//!
//! The elaborator keeps the kernel context in lockstep with its own
//! scope structure: every internal binder it introduces is pushed onto
//! the [`Ctx`], so de Bruijn indices are always `depth − 1 − position`.

use recmod_kernel::{Ctx, Entry, Tc, TypeError};
use recmod_syntax::ast::{Con, Kind, Term};
use recmod_syntax::intern::hc;
use recmod_syntax::subst::shift_con;

use crate::ast::{Path, TyExp};
use crate::env::{depth_delta, ElabEnv, Entity, StructEntity};
use crate::error::{ErrorKind, Span, SurfaceError, SurfaceResult};
use crate::shape::{con_proj, term_proj, DataInfo, Item};

/// One elaborated top-level binding, ready for linking.
#[derive(Debug, Clone)]
pub struct TopBinding {
    /// The surface name (or a generated name for hidden bindings).
    pub name: String,
    /// The principal internal signature (for structures/functors) or
    /// type (rendered) of the binding.
    pub describe: String,
    /// The dynamic part, used by the linker. References earlier
    /// bindings via `snd(s)`/variables at matching indices.
    pub dynamic: Term,
    /// The static (constructor) part, when the binding has one
    /// (structures and functors; `None` for plain values).
    pub static_part: Option<Con>,
    /// Whether the context entry is a structure (`snd` reference) or a
    /// term variable.
    pub is_structure: bool,
    /// Wall-clock nanoseconds spent elaborating (and kernel-checking)
    /// this binding's top-level declaration.
    pub elab_nanos: u64,
    /// Kernel judgement counters attributable to this binding's
    /// declaration (a delta over the elaborator's shared checker).
    pub kernel: recmod_kernel::KernelStats,
}

/// The elaborator state.
#[derive(Debug)]
pub struct Elaborator {
    /// The kernel checker.
    pub tc: Tc,
    /// The internal typing context, mirroring elaborator scope.
    pub ctx: Ctx,
    /// The name environment.
    pub env: ElabEnv,
    /// Completed top-level bindings in order.
    pub bindings: Vec<TopBinding>,
    pub(crate) gensym: usize,
    /// Live structural-recursion depth across the elab_* family.
    pub(crate) rec_depth: usize,
    /// Monotone call counter, used to amortize deadline clock reads.
    pub(crate) ticks: u64,
    /// Span of the top-level declaration currently being elaborated.
    /// Limit diagnostics raised deep in the kernel have no span of
    /// their own; this anchors them to the declaration being checked.
    pub(crate) current_decl: Span,
}

impl Elaborator {
    /// A fresh elaborator with an equi-recursive kernel.
    pub fn new() -> Self {
        Self::with_tc(Tc::new())
    }

    /// A fresh elaborator whose kernel and own recursion guards honor
    /// the given [`recmod_kernel::Limits`].
    pub fn with_limits(limits: recmod_kernel::Limits) -> Self {
        Self::with_tc(Tc::with_limits(limits))
    }

    /// A fresh elaborator with a caller-provided kernel (e.g. a
    /// different [`recmod_kernel::RecMode`] or fuel budget).
    pub fn with_tc(tc: Tc) -> Self {
        Elaborator {
            tc,
            ctx: Ctx::new(),
            env: ElabEnv::new(),
            bindings: Vec::new(),
            gensym: 0,
            rec_depth: 0,
            ticks: 0,
            current_decl: Span::default(),
        }
    }

    /// Resets all per-program state (context, environment, bindings,
    /// gensym, recursion guards) and renews the kernel under `limits`
    /// (see [`Tc::renew`]), so the elaborator is in the state of a fresh
    /// one. The batch driver and the compile service call this between
    /// files to reuse the allocations of the kernel's memo tables; no
    /// result carries over from one file to the next.
    pub fn renew(&mut self, limits: recmod_kernel::Limits) {
        self.ctx = Ctx::new();
        self.env = ElabEnv::new();
        self.bindings.clear();
        self.gensym = 0;
        self.rec_depth = 0;
        self.ticks = 0;
        self.current_decl = Span::default();
        self.tc.renew(limits);
    }

    /// Runs `f` one structural level deeper, failing with a limit
    /// diagnostic at `span` once the kernel's `max_depth` levels are
    /// live (the bound is shared with [`Tc`]) or the deadline has
    /// passed. Every recursive `elab_*` entry point routes through
    /// this, so arbitrarily nested ASTs yield
    /// [`ErrorKind::Limit`](crate::error::ErrorKind) instead of a
    /// stack overflow.
    pub(crate) fn with_depth<T>(
        &mut self,
        span: Span,
        f: impl FnOnce(&mut Self) -> SurfaceResult<T>,
    ) -> SurfaceResult<T> {
        let limits = *self.tc.limits();
        if self.rec_depth >= limits.max_depth {
            return Err(SurfaceError::new(
                self.anchor(span),
                ErrorKind::Limit(limits.depth_error("elaborate")),
            ));
        }
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(256) && limits.deadline_passed() {
            return Err(SurfaceError::new(
                self.anchor(span),
                ErrorKind::Limit(limits.deadline_error("elaborate")),
            ));
        }
        self.rec_depth += 1;
        let r = f(self);
        self.rec_depth -= 1;
        r
    }

    /// Current internal-context depth.
    pub fn depth(&self) -> usize {
        self.ctx.len()
    }

    /// Runs one root kernel judgement, attributing its wall-clock to the
    /// `stage.kernel` telemetry stage (exclusive time — nested stages
    /// subtract themselves). Every surface→kernel call site routes
    /// through this so `--stats` can say how much of elaboration is
    /// kernel time.
    pub(crate) fn kernel<R>(&mut self, f: impl FnOnce(&Tc, &mut Ctx) -> R) -> R {
        let Elaborator { tc, ctx, .. } = self;
        recmod_telemetry::stage("stage.kernel", || f(tc, ctx))
    }

    pub(crate) fn fresh(&mut self, prefix: &str) -> String {
        self.gensym += 1;
        format!("${prefix}${}", self.gensym)
    }

    pub(crate) fn err<T>(&self, span: Span, kind: ErrorKind) -> SurfaceResult<T> {
        Err(SurfaceError::new(self.anchor(span), kind))
    }

    pub(crate) fn terr(&self, span: Span, e: TypeError) -> SurfaceError {
        SurfaceError::new(self.anchor(span), ErrorKind::Type(e))
    }

    /// Anchors a default (empty) span to the declaration currently
    /// being elaborated, so deadline/fuel diagnostics raised mid-kernel
    /// still point at a real source location.
    pub(crate) fn anchor(&self, span: Span) -> Span {
        if span == Span::default() {
            self.current_decl
        } else {
            span
        }
    }

    // ----- path resolution ------------------------------------------------

    /// Resolves a (possibly dotted) structure path to a view of the
    /// denoted structure, expressed at the current depth.
    pub(crate) fn resolve_struct(&self, path: &Path) -> SurfaceResult<StructEntity> {
        let first = &path.parts[0];
        let entity = self
            .env
            .lookup(first)
            .ok_or_else(|| SurfaceError::new(path.span, ErrorKind::Unbound(first.clone())))?;
        let Entity::Struct(base) = entity else {
            return Err(SurfaceError::new(
                path.span,
                ErrorKind::WrongEntity {
                    name: first.clone(),
                    expected: "a structure",
                },
            ));
        };
        let mut cur = StructEntity {
            shape: base.shape.clone(),
            statics: base.statics_at(self.depth()),
            dynamics: base.dynamics_at(self.depth()),
            depth: self.depth(),
        };
        for part in &path.parts[1..] {
            cur = self.project_substruct(&cur, part, path.span)?;
        }
        Ok(cur)
    }

    /// Resolves all but the last component of a dotted path to a
    /// structure, returning the structure and the final field name.
    pub(crate) fn resolve_prefix<'p>(
        &self,
        path: &'p Path,
    ) -> SurfaceResult<(StructEntity, &'p str)> {
        debug_assert!(path.parts.len() >= 2);
        let prefix = Path {
            parts: path.parts[..path.parts.len() - 1].to_vec(),
            span: path.span,
        };
        let st = self.resolve_struct(&prefix)?;
        let field = path
            .parts
            .last()
            .ok_or_else(|| SurfaceError::internal(path.span, "resolve_prefix on an empty path"))?;
        Ok((st, field.as_str()))
    }

    fn project_substruct(
        &self,
        parent: &StructEntity,
        name: &str,
        span: Span,
    ) -> SurfaceResult<StructEntity> {
        match parent.shape.find(name) {
            Some(Item::Struct(sub_shape)) => {
                let s_slot = parent.shape.static_slot(name).ok_or_else(|| {
                    SurfaceError::internal(span, "substructure without a static slot")
                })?;
                let d_slot = parent.shape.dyn_slot(name).ok_or_else(|| {
                    SurfaceError::internal(span, "substructure without a dynamic slot")
                })?;
                Ok(StructEntity {
                    shape: sub_shape.clone(),
                    statics: con_proj(parent.statics.clone(), s_slot, parent.shape.static_len()),
                    dynamics: term_proj(parent.dynamics.clone(), d_slot, parent.shape.dyn_len()),
                    depth: parent.depth,
                })
            }
            Some(_) => Err(SurfaceError::new(
                span,
                ErrorKind::WrongEntity {
                    name: name.to_string(),
                    expected: "a structure",
                },
            )),
            None => Err(SurfaceError::new(
                span,
                ErrorKind::Unbound(name.to_string()),
            )),
        }
    }

    /// Resolves a type path to a constructor at the current depth.
    pub(crate) fn resolve_ty_path(&self, path: &Path) -> SurfaceResult<Con> {
        if path.parts.len() == 1 {
            let name = &path.parts[0];
            match self.env.lookup(name) {
                Some(Entity::TyAlias { con, depth }) | Some(Entity::Data { con, depth, .. }) => {
                    Ok(shift_con(con, depth_delta(*depth, self.depth()), 0))
                }
                Some(_) => self.err(
                    path.span,
                    ErrorKind::WrongEntity {
                        name: name.clone(),
                        expected: "a type",
                    },
                ),
                None => self.err(path.span, ErrorKind::Unbound(name.clone())),
            }
        } else {
            let (st, field) = self.resolve_prefix(path)?;
            match st.shape.find(field) {
                Some(Item::Ty) | Some(Item::Data(_)) => {
                    let slot = st.shape.static_slot(field).ok_or_else(|| {
                        SurfaceError::internal(path.span, "type item without a static slot")
                    })?;
                    Ok(con_proj(st.statics, slot, st.shape.static_len()))
                }
                Some(_) => self.err(
                    path.span,
                    ErrorKind::WrongEntity {
                        name: field.to_string(),
                        expected: "a type",
                    },
                ),
                None => self.err(path.span, ErrorKind::Unbound(path.dotted())),
            }
        }
    }

    /// Resolves a value path to a term at the current depth.
    pub(crate) fn resolve_val_path(&self, path: &Path) -> SurfaceResult<Term> {
        if path.parts.len() == 1 {
            let name = &path.parts[0];
            match self.env.lookup(name) {
                Some(Entity::Val { pos }) => Ok(Term::Var(self.index_of(*pos))),
                Some(Entity::Ctor(c)) => Ok(Term::Var(self.index_of(c.pos))),
                Some(_) => self.err(
                    path.span,
                    ErrorKind::WrongEntity {
                        name: name.clone(),
                        expected: "a value",
                    },
                ),
                None => self.err(path.span, ErrorKind::Unbound(name.clone())),
            }
        } else {
            let (st, field) = self.resolve_prefix(path)?;
            match st.shape.find(field) {
                Some(Item::Val) => {
                    let slot = st.shape.dyn_slot(field).ok_or_else(|| {
                        SurfaceError::internal(path.span, "val item without a dynamic slot")
                    })?;
                    Ok(term_proj(st.dynamics, slot, st.shape.dyn_len()))
                }
                Some(_) => self.err(
                    path.span,
                    ErrorKind::WrongEntity {
                        name: field.to_string(),
                        expected: "a value",
                    },
                ),
                None => self.err(path.span, ErrorKind::Unbound(path.dotted())),
            }
        }
    }

    /// How a constructor used in an expression or pattern resolves.
    pub(crate) fn resolve_ctor(&self, path: &Path) -> SurfaceResult<CtorRes> {
        if path.parts.len() == 1 {
            let name = &path.parts[0];
            match self.env.lookup(name) {
                Some(Entity::Ctor(c)) => Ok(CtorRes {
                    data_con: shift_con(&c.data_con, depth_delta(c.depth, self.depth()), 0),
                    index: c.index,
                    has_arg: c.has_arg,
                    info: c.info.clone(),
                    value: Term::Var(self.index_of(c.pos)),
                }),
                _ => self.err(
                    path.span,
                    ErrorKind::WrongEntity {
                        name: name.clone(),
                        expected: "a datatype constructor",
                    },
                ),
            }
        } else {
            let (st, field) = self.resolve_prefix(path)?;
            let Some((ty_name, info)) = st.shape.data_of_ctor(field) else {
                return self.err(
                    path.span,
                    ErrorKind::WrongEntity {
                        name: field.to_string(),
                        expected: "a datatype constructor",
                    },
                );
            };
            let (index, has_arg) = info.find(field).ok_or_else(|| {
                SurfaceError::internal(path.span, "data_of_ctor hit without the constructor")
            })?;
            let t_slot = st.shape.static_slot(ty_name).ok_or_else(|| {
                SurfaceError::internal(path.span, "datatype without a static slot")
            })?;
            let v_slot = st.shape.dyn_slot(field).ok_or_else(|| {
                SurfaceError::internal(path.span, "constructor without a val slot")
            })?;
            Ok(CtorRes {
                data_con: con_proj(st.statics.clone(), t_slot, st.shape.static_len()),
                index,
                has_arg,
                info: info.clone(),
                value: term_proj(st.dynamics, v_slot, st.shape.dyn_len()),
            })
        }
    }

    /// Does `name` denote a datatype constructor here? (Used to decide
    /// whether a bare identifier pattern is a nullary-constructor pattern.)
    pub(crate) fn is_ctor(&self, path: &Path) -> bool {
        if path.parts.len() == 1 {
            matches!(self.env.lookup(&path.parts[0]), Some(Entity::Ctor(_)))
        } else {
            self.resolve_prefix(path)
                .map(|(st, field)| st.shape.data_of_ctor(field).is_some())
                .unwrap_or(false)
        }
    }

    /// Converts an absolute context position to a de Bruijn index at the
    /// current depth.
    pub(crate) fn index_of(&self, pos: usize) -> usize {
        self.depth() - 1 - pos
    }

    // ----- types ------------------------------------------------------------

    /// Elaborates a surface type to a monotype constructor.
    pub fn elab_ty(&mut self, t: &TyExp) -> SurfaceResult<Con> {
        let _j = recmod_telemetry::judgement_span("surface.elab_ty");
        self.with_depth(t.span(), |this| this.elab_ty_inner(t))
    }

    fn elab_ty_inner(&mut self, t: &TyExp) -> SurfaceResult<Con> {
        match t {
            TyExp::Int(_) => Ok(Con::Int),
            TyExp::Bool(_) => Ok(Con::Bool),
            TyExp::Unit(_) => Ok(Con::UnitTy),
            TyExp::Path(p) => self.resolve_ty_path(p),
            TyExp::Prod(parts, _) => {
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.push(self.elab_ty(p)?);
                }
                Ok(prod_chain(out))
            }
            TyExp::Arrow(a, b, _) => {
                let ca = self.elab_ty(a)?;
                let cb = self.elab_ty(b)?;
                Ok(Con::Arrow(hc(ca), hc(cb)))
            }
        }
    }

    /// Elaborates a datatype declaration's `μ` constructor and metadata.
    /// The datatype's own name is in scope inside its constructors'
    /// argument types (bound to the `μ` variable).
    pub(crate) fn elab_datatype_con(
        &mut self,
        name: &str,
        ctors: &[crate::ast::CtorDecl],
    ) -> SurfaceResult<(Con, DataInfo)> {
        // Elaborate summands under the μ binder.
        self.ctx.push(Entry::Con(hc(Kind::Type)));
        let mark = self.env.mark();
        self.env.insert(
            name,
            Entity::TyAlias {
                con: Con::Var(0),
                depth: self.depth(),
            },
        );
        let mut summands = Vec::with_capacity(ctors.len());
        let mut info = Vec::with_capacity(ctors.len());
        let mut result: SurfaceResult<()> = Ok(());
        for c in ctors {
            match &c.arg {
                Some(t) => match self.elab_ty(t) {
                    Ok(con) => {
                        summands.push(hc(con));
                        info.push((c.name.clone(), true));
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                },
                None => {
                    summands.push(hc(Con::UnitTy));
                    info.push((c.name.clone(), false));
                }
            }
        }
        self.env.reset(mark);
        self.ctx.truncate(self.depth() - 1);
        result?;
        let mu = Con::Mu(hc(Kind::Type), hc(Con::Sum(summands)));
        Ok((mu, DataInfo { ctors: info.into() }))
    }

    /// The sum constructor reached by unrolling a datatype's `μ` (needed
    /// as the annotation on injections and for branch types). Recursive
    /// modules wrap the datatype's own `μ` in a module-level `μ` (the §5
    /// nested-tower situation), so unrolling repeats until the sum
    /// appears.
    pub(crate) fn unrolled_sum(&mut self, data_con: &Con, span: Span) -> SurfaceResult<Con> {
        let mut cur = hc(data_con.clone());
        for _ in 0..64 {
            let w = self
                .kernel(|tc, ctx| tc.whnf(ctx, &cur))
                .map_err(|e| self.terr(span, e))?;
            match &*w {
                Con::Sum(_) => return Ok(w.take()),
                Con::Mu(_, _) if recmod_kernel::whnf::is_contractive(&w) => {
                    cur = recmod_kernel::whnf::unroll_mu(&w).map_err(|e| self.terr(span, e))?;
                }
                other => {
                    return self.err(
                        span,
                        ErrorKind::Other(format!(
                            "not a datatype: {}",
                            recmod_syntax::pretty::con_to_string(
                                other,
                                &mut recmod_syntax::pretty::Names::new()
                            )
                        )),
                    )
                }
            }
        }
        self.err(
            span,
            ErrorKind::Other("datatype unrolling did not converge".into()),
        )
    }
}

impl Default for Elaborator {
    fn default() -> Self {
        Self::new()
    }
}

/// A resolved constructor occurrence, at the current depth.
#[derive(Debug, Clone)]
pub(crate) struct CtorRes {
    /// The datatype's `μ` constructor.
    pub data_con: Con,
    /// The constructor's summand index.
    pub index: usize,
    /// Whether it carries an argument (recorded for completeness; the
    /// pattern code recovers arity from `info`).
    #[allow(dead_code)]
    pub has_arg: bool,
    /// All constructors of the datatype.
    pub info: DataInfo,
    /// The constructor *value* (a total function or a rolled value).
    pub value: Term,
}

/// Builds a right-nested product monotype (`unit` when empty).
pub(crate) fn prod_chain(parts: Vec<Con>) -> Con {
    let mut rev = parts.into_iter().rev();
    match rev.next() {
        None => Con::UnitTy,
        Some(last) => rev.fold(last, |acc, c| Con::Prod(hc(c), hc(acc))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CtorDecl;

    #[test]
    fn elab_base_types() {
        let mut e = Elaborator::new();
        assert_eq!(e.elab_ty(&TyExp::Int(Span::default())).unwrap(), Con::Int);
        let t = TyExp::Prod(
            vec![TyExp::Int(Span::default()), TyExp::Bool(Span::default())],
            Span::default(),
        );
        assert_eq!(
            e.elab_ty(&t).unwrap(),
            Con::Prod(
                recmod_syntax::intern::hc(Con::Int),
                recmod_syntax::intern::hc(Con::Bool)
            )
        );
    }

    #[test]
    fn datatype_builds_mu_of_sum() {
        let mut e = Elaborator::new();
        let ctors = vec![
            CtorDecl {
                name: "NIL".into(),
                arg: None,
                span: Span::default(),
            },
            CtorDecl {
                name: "CONS".into(),
                arg: Some(TyExp::Prod(
                    vec![
                        TyExp::Int(Span::default()),
                        TyExp::Path(Path::simple("t", Span::default())),
                    ],
                    Span::default(),
                )),
                span: Span::default(),
            },
        ];
        let (mu, info) = e.elab_datatype_con("t", &ctors).unwrap();
        assert_eq!(
            mu,
            Con::Mu(
                recmod_syntax::intern::hc(Kind::Type),
                recmod_syntax::intern::hc(Con::Sum(vec![
                    recmod_syntax::intern::hc(Con::UnitTy),
                    recmod_syntax::intern::hc(Con::Prod(
                        recmod_syntax::intern::hc(Con::Int),
                        recmod_syntax::intern::hc(Con::Var(0))
                    )),
                ]))
            )
        );
        assert_eq!(info.find("CONS"), Some((1, true)));
        assert_eq!(e.depth(), 0, "μ binder popped");
    }

    #[test]
    fn unbound_type_reported() {
        let mut e = Elaborator::new();
        let t = TyExp::Path(Path::simple("mystery", Span::default()));
        assert!(matches!(
            e.elab_ty(&t),
            Err(SurfaceError {
                kind: ErrorKind::Unbound(_),
                ..
            })
        ));
    }
}
