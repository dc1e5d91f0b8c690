//! Resource-limit behaviour: pathologically deep input must produce a
//! structured `LimitExceeded` from every pipeline stage — never a stack
//! overflow, never a hang. Deep cases run on a big-stack thread so the
//! limits layer (not the 2 MB test-thread stack) is what stops them.

use recmod::kernel::{Ctx, Tc};
use recmod::surface::ast::{BinOp, Exp};
use recmod::surface::{Elaborator, Span};
use recmod::syntax::ast::{Con, Kind, Module, Sig, Term, Ty};
use recmod::telemetry::Limits;

const DEPTH: usize = 10_000;

fn deep_parens(depth: usize) -> String {
    let mut s = String::with_capacity(2 * depth + 1);
    for _ in 0..depth {
        s.push('(');
    }
    s.push('1');
    for _ in 0..depth {
        s.push(')');
    }
    s
}

#[test]
fn parser_reports_limit_on_deep_nesting() {
    recmod::eval::run_big_stack(256, || {
        let src = deep_parens(DEPTH);
        let errors = recmod::surface::parse_with(&src, &Limits::default())
            .expect_err("depth-10000 nesting must not parse");
        assert!(
            errors.iter().any(|e| e.is_limit()),
            "expected a limit error, got: {errors:?}"
        );
        let msg = errors
            .iter()
            .find(|e| e.is_limit())
            .map(ToString::to_string)
            .unwrap_or_default();
        assert!(
            msg.contains("parse"),
            "limit not attributed to parse: {msg}"
        );
    });
}

#[test]
fn full_compile_reports_limit_on_deep_nesting() {
    recmod::eval::run_big_stack(256, || {
        let src = deep_parens(DEPTH);
        let errors = recmod::surface::compile_with_limits(&src, &Limits::default())
            .expect_err("depth-10000 nesting must not compile");
        assert!(errors.iter().any(|e| e.is_limit()), "got: {errors:?}");
    });
}

#[test]
fn elaborator_reports_limit_on_deep_ast() {
    recmod::eval::run_big_stack(256, || {
        // Built programmatically: the parser's own guard would otherwise
        // fire first and the elaborator guard would go untested.
        let sp = Span::new(0, 1);
        let mut e = Exp::Int(1, sp);
        for _ in 0..DEPTH {
            e = Exp::Bin(BinOp::Add, Box::new(Exp::Int(1, sp)), Box::new(e), sp);
        }
        let err = Elaborator::with_limits(Limits::default())
            .elab_exp(&e)
            .expect_err("depth-10000 AST must not elaborate");
        assert!(err.is_limit(), "got: {err}");
        assert!(
            err.to_string().contains("elaborate"),
            "limit not attributed to elaborate: {err}"
        );
    });
}

#[test]
fn kernel_reports_limit_on_deep_mu_tower() {
    recmod::eval::run_big_stack(256, || {
        let mut c = Con::Int;
        for _ in 0..DEPTH {
            c = Con::Mu(
                recmod::syntax::intern::hc(Kind::Type),
                recmod::syntax::intern::hc(c),
            );
        }
        let tc = Tc::with_limits(Limits::default());
        let err = tc
            .synth_con(&mut Ctx::new(), &c)
            .expect_err("depth-10000 μ-tower must not kind-check");
        assert!(err.is_limit(), "got: {err}");
    });
}

#[test]
fn phase_split_reports_limit_on_deep_module() {
    recmod::eval::run_big_stack(256, || {
        let sig = Sig::Struct(recmod::syntax::intern::hc(Kind::Type), Box::new(Ty::Unit));
        let mut m = Module::Struct(Con::Int, Term::Star);
        for _ in 0..DEPTH {
            m = Module::Seal(Box::new(m), Box::new(sig.clone()));
        }
        let tc = Tc::with_limits(Limits::default());
        let err = recmod::phase::split_module(&tc, &mut Ctx::new(), &m)
            .expect_err("depth-10000 seal tower must not split");
        assert!(err.is_limit(), "got: {err}");
    });
}

#[test]
fn evaluator_reports_limit_on_deep_recursion() {
    recmod::eval::run_big_stack(256, || {
        let src = "fun f (n : int) : int = if n < 1 then 0 else 1 + f (n - 1)\n;\nf 100000";
        let compiled = recmod::compile(src).expect("the driver itself is well-typed");
        let term = compiled.program();
        let mut interp = recmod::eval::Interp::with_pipeline_limits(&Limits::strict());
        let err = interp
            .run(&term)
            .expect_err("100000-deep recursion must exhaust the strict budget");
        assert!(err.is_limit(), "got: {err}");
        // The depth guard fires at the same step the `Term`-walking
        // interpreter stopped at: the code tree keeps step accounting.
        assert_eq!(err, recmod::eval::EvalError::DepthExceeded);
        assert_eq!(
            interp.stats(),
            recmod::eval::EvalStats {
                steps: 6_496,
                closures: 501,
                backpatches: 1,
                max_env_depth: 2,
            }
        );
    });
}

/// The same deep input must produce the same structured verdict on
/// every run — limit errors are part of the deterministic interface.
#[test]
fn limit_verdicts_are_deterministic() {
    recmod::eval::run_big_stack(256, || {
        let src = deep_parens(DEPTH);
        let render = |errs: Vec<recmod::SurfaceError>| {
            errs.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = recmod::surface::parse_with(&src, &Limits::default()).expect_err("deep");
        let b = recmod::surface::parse_with(&src, &Limits::default()).expect_err("deep");
        assert_eq!(render(a), render(b));
    });
}
