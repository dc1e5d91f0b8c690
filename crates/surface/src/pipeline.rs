//! The compilation pipeline: parse → elaborate → typecheck → link.

use recmod_syntax::ast::Term;
use recmod_telemetry::{stage, Limits};

use crate::elab::Elaborator;
use crate::error::{ErrorKind, SurfaceError, SurfaceResult};
use crate::link::link_program;
use crate::parser::{parse, parse_with};

/// The result of compiling a program.
#[derive(Debug)]
pub struct Compiled {
    /// The elaborator, holding the final context, environment, and the
    /// per-binding splits (useful for inspection and tests).
    pub elab: Elaborator,
    /// The elaborated main expression, if the program had one.
    pub main: Option<Term>,
}

impl Compiled {
    /// The closed, linked program term for the evaluator.
    pub fn program(&self) -> Term {
        link_program(&self.elab.bindings, self.main.as_ref())
    }

    /// `(name, description)` pairs for the top-level bindings.
    pub fn summaries(&self) -> Vec<(String, String)> {
        self.elab
            .bindings
            .iter()
            .map(|b| (b.name.clone(), b.describe.clone()))
            .collect()
    }
}

/// Compiles a program with a default (equi-recursive) kernel.
///
/// # Errors
///
/// Lexical, syntax, scoping, and type errors, each carrying a source
/// span (render with [`SurfaceError::render`]).
pub fn compile(src: &str) -> SurfaceResult<Compiled> {
    compile_with(Elaborator::new(), src)
}

/// Compiles with a caller-supplied elaborator (custom kernel mode/fuel).
pub fn compile_with(mut elab: Elaborator, src: &str) -> SurfaceResult<Compiled> {
    // A failure snapshot swallowed by an earlier run on this thread must
    // never become this run's provenance.
    recmod_telemetry::diag::clear_failure();
    let prog = parse(src)?;
    let main = stage("stage.elab", || -> SurfaceResult<Option<Term>> {
        for d in &prog.decls {
            elab.elab_topdec(d)?;
        }
        match &prog.main {
            Some(e) => {
                let term = elab.elab_exp(e)?;
                elab.kernel(|tc, ctx| tc.synth_term(ctx, &term))
                    .map_err(|err| SurfaceError::new(e.span(), ErrorKind::Type(err)))?;
                Ok(Some(term))
            }
            None => Ok(None),
        }
    })?;
    Ok(Compiled { elab, main })
}

/// Compiles under resource `limits`, collecting every diagnostic the
/// run produces instead of stopping at the first.
///
/// The parser recovers at declaration boundaries; elaboration then
/// continues past a failed top-level declaration (its bindings are
/// simply absent downstream, which may cascade into unbound-name
/// errors — those are still real positions in the source). A resource
/// limit aborts the run, since later work would only hit it again.
///
/// # Errors
///
/// Every diagnostic found, ordered by source position; the vector is
/// never empty on `Err`.
pub fn compile_with_limits(src: &str, limits: &Limits) -> Result<Compiled, Vec<SurfaceError>> {
    compile_with_limits_in(Elaborator::with_limits(*limits), src).map_err(|(errs, _)| errs)
}

/// Like [`compile_with_limits`], but reuses a caller-supplied
/// elaborator — and hands it back on failure, so a batch driver can
/// reuse one typechecker's allocations across files. The caller is
/// responsible for resetting per-run state first (see
/// `Elaborator::renew`, which makes it equal to a fresh one).
///
/// # Errors
///
/// Every diagnostic found, ordered by source position, paired with the
/// elaborator for reuse; the vector is never empty on `Err`.
#[allow(clippy::result_large_err)]
pub fn compile_with_limits_in(
    mut elab: Elaborator,
    src: &str,
) -> Result<Compiled, (Vec<SurfaceError>, Elaborator)> {
    // See `compile_with`: stale snapshots must not leak across runs.
    recmod_telemetry::diag::clear_failure();
    let mut errors: Vec<SurfaceError> = Vec::new();
    let limits = *elab.tc.limits();
    let prog = match parse_with(src, &limits) {
        Ok(p) => p,
        Err(errs) => {
            // Parsing already recovered what it could; elaborating the
            // partial program would double-report, so stop here.
            return Err((errs, elab));
        }
    };
    let main = stage("stage.elab", || {
        for d in &prog.decls {
            if let Err(e) = elab.elab_topdec(d) {
                let stop = e.is_limit();
                errors.push(e);
                if stop {
                    return None;
                }
            }
        }
        match &prog.main {
            Some(e) => {
                let checked = elab.elab_exp(e).and_then(|term| {
                    elab.kernel(|tc, ctx| tc.synth_term(ctx, &term))
                        .map_err(|err| SurfaceError::new(e.span(), ErrorKind::Type(err)))?;
                    Ok(term)
                });
                match checked {
                    Ok(term) => Some(Some(term)),
                    Err(e) => {
                        errors.push(e);
                        Some(None)
                    }
                }
            }
            None => Some(None),
        }
    });
    let main = match main {
        Some(m) => m,
        None => {
            // A resource limit aborted the run.
            errors.sort_by_key(|e| (e.span.start, e.span.end));
            return Err((errors, elab));
        }
    };
    if errors.is_empty() {
        Ok(Compiled { elab, main })
    } else {
        errors.sort_by_key(|e| (e.span.start, e.span.end));
        Err((errors, elab))
    }
}
