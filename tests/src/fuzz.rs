//! The seeded fuzzing + differential harness.
//!
//! Every case is fully determined by one `u64` seed (SplitMix64), so a
//! failure report is a reproduction recipe. A seed drives one of twelve
//! case classes:
//!
//! * **Expression differential** — a random well-typed expression
//!   program is evaluated by a tiny reference interpreter over the
//!   generator's own AST ("direct eval") and by the full pipeline
//!   (parse → elaborate → kernel → phase-split → link → evaluate); the
//!   two values must agree.
//! * **Module differential** — a random operation sequence is run
//!   against the paper's transparent *and* opaque recursive list
//!   modules and against a native `Vec` model; the three checksums must
//!   agree (the paper's §3 observational-equivalence claim).
//! * **Ill-formed input** — a valid program is mutated (deletions,
//!   duplications, keyword splices) and compiled under strict limits;
//!   any structured verdict is fine, a panic is a bug.
//! * **Kernel μ-fuzz** — random μ-constructor pairs (Shao collapses,
//!   unrollings, deep towers) are checked for equivalence under both
//!   `Equi` and `IsoShao` with tight budgets; iso-acceptance must imply
//!   equi-acceptance (§5: Shao's equation is sound for the
//!   equi-recursive theory), and deep towers must produce structured
//!   limit errors, never a stack overflow.
//! * **Interning differential** — random constructor pairs are checked
//!   for agreement between the hash-consed representation's id-based
//!   equality and a deep reference structural-equality walk, and a
//!   bottom-up rebuild through fresh intern calls must converge on the
//!   identical canonical pointers.
//! * **Thread isolation** — a batch of (possibly mutated) programs is
//!   compiled through the parallel driver on two workers (which share
//!   nothing) and again on one; the outcomes must be byte-identical, no
//!   compile may panic, and neither the calling thread's interner
//!   counters nor its telemetry sink may see any bleed from the
//!   workers.
//! * **Profiled differential** — the same (possibly mutated) program is
//!   compiled with no telemetry sink and under a full profiling sink
//!   (`Config::profiled`); the verdicts and rendered diagnostics must
//!   be identical (observation must not perturb the observed), no
//!   compile may panic, and a successful profiled compile must actually
//!   record spans.
//! * **Diagnostics totality** — an arbitrary (often mutated) program is
//!   compiled under strict limits and every diagnostic must carry a
//!   well-formed stable code, non-empty provenance, and a JSON form
//!   that parses back intact, with the judgement frame stack balanced.
//! * **Chaos serve** — a batch of requests is driven through a live
//!   compile server with deterministic fault injection armed (panics,
//!   allocation trips, deadline storms, worker kills); every request
//!   must get exactly one response, every verdict must match the
//!   unfaulted batch driver's byte for byte, and the server must drain
//!   with no leaked workers and a balanced flight recorder.
//! * **NbE differential** — random well- and ill-kinded constructors
//!   are run through weak-head normalization, kind synthesis, and
//!   equivalence under both the NbE engine and the legacy substitution
//!   engine (selected with `set_thread_engine`), and a whole program is
//!   compiled under each engine on fresh threads; normal forms, verdicts, stable
//!   error codes, and rendered diagnostics must all agree (resource
//!   verdicts are inconclusive — the engines deliberately meter fuel
//!   differently).
//! * **Rewrite-memo differential** — random open constructors and
//!   dependent kinds go through long random sequences of shifts,
//!   constructor substitutions and selfifications, which consult the
//!   per-thread rewrite memo (`recmod_syntax::memo`), with pool drops
//!   and interner sweeps interleaved; every result must be the very
//!   pointer a memo-free reference traversal interns.
//! * **History independence** — a program is compiled under a fuel
//!   budget near its needs on a fresh elaborator, on an elaborator
//!   renewed after compiling another program, and beside another
//!   thread's compile; verdicts, stable codes, rendered diagnostics and
//!   the fuel spent per operation must be identical.
//!
//! The driver ([`run_case`]) reports `Err(description)` on any
//! disagreement; panics are caught by the caller (`tests/fuzz.rs`)
//! which runs each case under `catch_unwind` on a big-stack thread.

use recmod::kernel::{Ctx, RecMode, Tc, TypeError};
use recmod::surface::Elaborator;
use recmod::syntax::ast::{Con, Kind, Ty};
use recmod::syntax::intern::{hc, HC};
use recmod::telemetry::Limits;
use recmod_bench::rng::Rng;

// ---------------------------------------------------------------------
// Class 0: expression differential
// ---------------------------------------------------------------------

/// The generator's expression AST: a subset of the surface language
/// with fully parenthesized rendering, so precedence can't diverge
/// between the reference and the real parser.
#[derive(Debug, Clone)]
enum GenExp {
    Int(i64),
    Bool(bool),
    Var(usize),
    Bin(GenOp, Box<GenExp>, Box<GenExp>),
    If(Box<GenExp>, Box<GenExp>, Box<GenExp>),
    Let(Box<GenExp>, Box<GenExp>),
    /// `((fn (xk : int) => body) arg)`: the body is under one more
    /// binder, and the evaluator runs it as a closure, so its reads of
    /// outer `let`- and `fn`-bound variables go through captures.
    Call(Box<GenExp>, Box<GenExp>),
}

/// How deep class 0 nests `fn`s.
const MAX_FN_NESTING: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenOp {
    Add,
    Sub,
    Mul,
    Eq,
    Lt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenTy {
    Int,
    Bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenVal {
    Int(i64),
    Bool(bool),
}

/// Generates a well-typed expression of type `want`. `scope` holds the
/// types of the `let`- and `fn`-bound variables currently visible
/// (`x0`, `x1`, …); `fns` is how many more `fn`s may nest inside (0
/// generates none and draws exactly what the `fn`-free generator drew).
fn gen_exp(rng: &mut Rng, scope: &mut Vec<GenTy>, fns: usize, want: GenTy, depth: usize) -> GenExp {
    let vars: Vec<usize> = (0..scope.len()).filter(|&i| scope[i] == want).collect();
    if depth == 0 || rng.chance(1, 4) {
        // Leaf: a variable of the right type when one exists, else a
        // literal.
        if !vars.is_empty() && rng.chance(1, 2) {
            return GenExp::Var(vars[rng.below(vars.len() as u64) as usize]);
        }
        return match want {
            GenTy::Int => GenExp::Int(rng.range_i64(0, 99)),
            GenTy::Bool => GenExp::Bool(rng.chance(1, 2)),
        };
    }
    let d = depth - 1;
    if fns > 0 && rng.chance(1, 5) {
        let outer: Vec<usize> = (0..scope.len())
            .filter(|&i| scope[i] == GenTy::Int)
            .collect();
        let arg = gen_exp(rng, scope, fns, GenTy::Int, d);
        scope.push(GenTy::Int);
        let mut body = gen_exp(rng, scope, fns - 1, want, d);
        scope.pop();
        if !outer.is_empty() {
            // Make the result depend on a variable bound outside the
            // `fn`, which the body can only reach through a capture.
            let x = Box::new(GenExp::Var(outer[rng.below(outer.len() as u64) as usize]));
            let fifty = || Box::new(GenExp::Int(50));
            body = match want {
                GenTy::Int => GenExp::Bin(GenOp::Add, x, Box::new(body)),
                GenTy::Bool => GenExp::If(
                    Box::new(body),
                    Box::new(GenExp::Bin(GenOp::Lt, x.clone(), fifty())),
                    Box::new(GenExp::Bin(GenOp::Lt, fifty(), x)),
                ),
            };
        }
        return GenExp::Call(Box::new(body), Box::new(arg));
    }
    match want {
        GenTy::Int => match rng.below(3) {
            0 => {
                let op = [GenOp::Add, GenOp::Sub, GenOp::Mul][rng.below(3) as usize];
                GenExp::Bin(
                    op,
                    Box::new(gen_exp(rng, scope, fns, GenTy::Int, d)),
                    Box::new(gen_exp(rng, scope, fns, GenTy::Int, d)),
                )
            }
            1 => GenExp::If(
                Box::new(gen_exp(rng, scope, fns, GenTy::Bool, d)),
                Box::new(gen_exp(rng, scope, fns, GenTy::Int, d)),
                Box::new(gen_exp(rng, scope, fns, GenTy::Int, d)),
            ),
            _ => {
                let bound_ty = if rng.chance(1, 2) {
                    GenTy::Int
                } else {
                    GenTy::Bool
                };
                let rhs = gen_exp(rng, scope, fns, bound_ty, d);
                scope.push(bound_ty);
                let body = gen_exp(rng, scope, fns, GenTy::Int, d);
                scope.pop();
                GenExp::Let(Box::new(rhs), Box::new(body))
            }
        },
        GenTy::Bool => match rng.below(3) {
            0 => {
                let op = if rng.chance(1, 2) {
                    GenOp::Eq
                } else {
                    GenOp::Lt
                };
                GenExp::Bin(
                    op,
                    Box::new(gen_exp(rng, scope, fns, GenTy::Int, d)),
                    Box::new(gen_exp(rng, scope, fns, GenTy::Int, d)),
                )
            }
            1 => GenExp::If(
                Box::new(gen_exp(rng, scope, fns, GenTy::Bool, d)),
                Box::new(gen_exp(rng, scope, fns, GenTy::Bool, d)),
                Box::new(gen_exp(rng, scope, fns, GenTy::Bool, d)),
            ),
            _ => GenExp::Bool(rng.chance(1, 2)),
        },
    }
}

/// Renders to surface syntax. `depth` is the number of enclosing
/// binders, so `Var(i)` renders as `x{i}` (names are never shadowed).
fn render(e: &GenExp, binders: usize, out: &mut String) {
    match e {
        GenExp::Int(n) => out.push_str(&n.to_string()),
        GenExp::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        GenExp::Var(i) => out.push_str(&format!("x{i}")),
        GenExp::Bin(op, a, b) => {
            let sym = match op {
                GenOp::Add => "+",
                GenOp::Sub => "-",
                GenOp::Mul => "*",
                GenOp::Eq => "=",
                GenOp::Lt => "<",
            };
            out.push('(');
            render(a, binders, out);
            out.push_str(&format!(" {sym} "));
            render(b, binders, out);
            out.push(')');
        }
        GenExp::If(c, t, f) => {
            out.push_str("(if ");
            render(c, binders, out);
            out.push_str(" then ");
            render(t, binders, out);
            out.push_str(" else ");
            render(f, binders, out);
            out.push(')');
        }
        GenExp::Let(rhs, body) => {
            out.push_str(&format!("(let val x{binders} = "));
            render(rhs, binders, out);
            out.push_str(" in ");
            render(body, binders + 1, out);
            out.push_str(" end)");
        }
        GenExp::Call(body, arg) => {
            out.push_str(&format!("((fn (x{binders} : int) => "));
            render(body, binders + 1, out);
            out.push_str(") ");
            render(arg, binders, out);
            out.push(')');
        }
    }
}

/// The reference interpreter ("direct eval"): evaluates the generator's
/// AST with the same semantics the pipeline implements (wrapping `i64`
/// arithmetic, lazy conditionals).
fn ref_eval(e: &GenExp, env: &mut Vec<GenVal>) -> GenVal {
    match e {
        GenExp::Int(n) => GenVal::Int(*n),
        GenExp::Bool(b) => GenVal::Bool(*b),
        GenExp::Var(i) => env[*i],
        GenExp::Bin(op, a, b) => {
            let GenVal::Int(x) = ref_eval(a, env) else {
                unreachable!("generator is type-correct")
            };
            let GenVal::Int(y) = ref_eval(b, env) else {
                unreachable!("generator is type-correct")
            };
            match op {
                GenOp::Add => GenVal::Int(x.wrapping_add(y)),
                GenOp::Sub => GenVal::Int(x.wrapping_sub(y)),
                GenOp::Mul => GenVal::Int(x.wrapping_mul(y)),
                GenOp::Eq => GenVal::Bool(x == y),
                GenOp::Lt => GenVal::Bool(x < y),
            }
        }
        GenExp::If(c, t, f) => match ref_eval(c, env) {
            GenVal::Bool(true) => ref_eval(t, env),
            GenVal::Bool(false) => ref_eval(f, env),
            GenVal::Int(_) => unreachable!("generator is type-correct"),
        },
        GenExp::Let(rhs, body) => {
            let v = ref_eval(rhs, env);
            env.push(v);
            let out = ref_eval(body, env);
            env.pop();
            out
        }
        GenExp::Call(body, arg) => {
            // The `fn` is a closure over the whole environment at its
            // definition; applying it runs the body in that environment
            // extended by the argument.
            let mut closure = env.clone();
            closure.push(ref_eval(arg, env));
            ref_eval(body, &mut closure)
        }
    }
}

fn case_expression_differential(rng: &mut Rng) -> Result<(), String> {
    let want = if rng.chance(1, 2) {
        GenTy::Int
    } else {
        GenTy::Bool
    };
    let depth = rng.range(1, 6);
    let e = gen_exp(rng, &mut Vec::new(), MAX_FN_NESTING, want, depth);
    let mut src = String::new();
    render(&e, 0, &mut src);
    let expected = ref_eval(&e, &mut Vec::new());
    let outcome = recmod::run(&src).map_err(|err| format!("pipeline rejected {src}: {err}"))?;
    let agree = match expected {
        GenVal::Int(n) => outcome.value_int() == Some(n),
        GenVal::Bool(b) => outcome.value_bool() == Some(b),
    };
    if agree {
        Ok(())
    } else {
        Err(format!(
            "direct eval disagrees with phase-split eval on {src}: expected {expected:?}"
        ))
    }
}

// ---------------------------------------------------------------------
// Class 1: module differential (paper §3 observational equivalence)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ListOp {
    Cons(i64),
    Uncons,
    Null,
}

fn gen_list_ops(rng: &mut Rng) -> Vec<ListOp> {
    let len = rng.range(1, 14);
    (0..len)
        .map(|_| match rng.below(3) {
            0 => ListOp::Cons(rng.range_i64(0, 99)),
            1 => ListOp::Uncons,
            _ => ListOp::Null,
        })
        .collect()
}

fn list_model(ops: &[ListOp]) -> i64 {
    let mut stack: Vec<i64> = Vec::new();
    let mut acc: i64 = 0;
    for op in ops {
        match op {
            ListOp::Cons(v) => stack.push(*v),
            ListOp::Uncons => {
                if let Some(h) = stack.pop() {
                    acc = acc * 7 + h;
                }
            }
            ListOp::Null => acc = acc * 7 + if stack.is_empty() { 1 } else { 2 },
        }
    }
    acc
}

fn list_driver(ops: &[ListOp]) -> String {
    let mut body = String::from("val l0 = List.nil\nval acc0 = 0\n");
    let mut li = 0usize;
    let mut ai = 0usize;
    for op in ops {
        match op {
            ListOp::Cons(v) => {
                body.push_str(&format!("val l{} = List.cons ({v}, l{li})\n", li + 1));
                li += 1;
            }
            ListOp::Uncons => {
                body.push_str(&format!(
                    "val s{ai} = if List.null l{li} then (acc{ai}, l{li}) \
                     else (case List.uncons l{li} of (h, r) => (acc{ai} * 7 + h, r))\n"
                ));
                body.push_str(&format!("val acc{} = case s{ai} of (a, r) => a\n", ai + 1));
                body.push_str(&format!("val l{} = case s{ai} of (a, r) => r\n", li + 1));
                ai += 1;
                li += 1;
            }
            ListOp::Null => {
                body.push_str(&format!(
                    "val acc{} = acc{ai} * 7 + (if List.null l{li} then 1 else 2)\n",
                    ai + 1
                ));
                ai += 1;
            }
        }
    }
    format!("{body};\nacc{ai}")
}

fn case_module_differential(rng: &mut Rng) -> Result<(), String> {
    let ops = gen_list_ops(rng);
    let expected = list_model(&ops);
    for (name, base) in [
        ("transparent", recmod::corpus::TRANSPARENT_LIST),
        ("opaque", recmod::corpus::OPAQUE_LIST),
    ] {
        let program = format!("{base}\n{}", list_driver(&ops));
        let got = recmod::run(&program)
            .map_err(|e| format!("{name} list rejected ops {ops:?}: {e}"))?
            .value_int();
        if got != Some(expected) {
            return Err(format!(
                "{name} list disagrees with the Vec model on {ops:?}: got {got:?}, want {expected}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 2: ill-formed input under strict limits
// ---------------------------------------------------------------------

const MUTATION_SPLICES: &[&str] = &[
    "structure",
    "sig",
    "end",
    "val",
    "=",
    "(",
    ")",
    ":>",
    "μ",
    "datatype",
    "of",
    "|",
    "let",
    "in",
    "fun",
    "->",
    "*",
    ";",
    "rec",
    "0x",
];

/// Mutates valid source: random deletions, duplications, and keyword
/// splices at character boundaries.
fn mutate(rng: &mut Rng, src: &str) -> String {
    let mut s: Vec<char> = src.chars().collect();
    let edits = rng.range(1, 4);
    for _ in 0..edits {
        if s.is_empty() {
            break;
        }
        match rng.below(3) {
            0 => {
                // Delete a chunk.
                let at = rng.below(s.len() as u64) as usize;
                let len = (rng.range(1, 20)).min(s.len() - at);
                s.drain(at..at + len);
            }
            1 => {
                // Duplicate a chunk.
                let at = rng.below(s.len() as u64) as usize;
                let len = (rng.range(1, 20)).min(s.len() - at);
                let chunk: Vec<char> = s[at..at + len].to_vec();
                let dst = rng.below(s.len() as u64 + 1) as usize;
                for (k, c) in chunk.into_iter().enumerate() {
                    s.insert(dst + k, c);
                }
            }
            _ => {
                // Splice a keyword/operator.
                let word = MUTATION_SPLICES[rng.below(MUTATION_SPLICES.len() as u64) as usize];
                let dst = rng.below(s.len() as u64 + 1) as usize;
                for (k, c) in word.chars().enumerate() {
                    s.insert(dst + k, c);
                }
            }
        }
    }
    s.into_iter().collect()
}

fn case_ill_formed(rng: &mut Rng) -> Result<(), String> {
    let base = match rng.below(4) {
        0 => recmod::corpus::OPAQUE_LIST.to_string(),
        1 => recmod::corpus::TRANSPARENT_LIST.to_string(),
        2 => recmod::corpus::EXPR_DECL_RDS.to_string(),
        _ => {
            let e = gen_exp(rng, &mut Vec::new(), 0, GenTy::Int, 4);
            let mut src = String::new();
            render(&e, 0, &mut src);
            src
        }
    };
    let mutated = mutate(rng, &base);
    let limits = Limits::strict().with_deadline_ms(5_000);
    // Any structured verdict is acceptable; the caller's catch_unwind
    // turns a panic into the failure.
    match recmod::surface::compile_with_limits(&mutated, &limits) {
        Ok(_) => Ok(()),
        Err(errors) if errors.is_empty() => {
            Err("compile_with_limits returned Err with no diagnostics".to_string())
        }
        Err(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Class 3: kernel μ-fuzz
// ---------------------------------------------------------------------

/// Is this verdict a resource bound rather than a semantic answer?
fn limited(e: &TypeError) -> bool {
    e.is_limit()
}

fn case_kernel_mu(rng: &mut Rng) -> Result<(), String> {
    let seed = rng.next_u64();
    let size = rng.range(1, 10);
    let (a, b) = match rng.below(4) {
        0 => recmod_bench::gen_shao_pair(size, seed),
        1 => recmod_bench::gen_unrolled_pair(size, seed),
        2 => recmod_bench::gen_nested_pair(size, seed),
        _ => {
            // A deep μ-tower: μα.μα.…μα.int, depth past the strict
            // bound, compared with itself. Must produce a structured
            // limit error (or a verdict), never a stack overflow.
            let depth = rng.range(300, 3_000);
            let mut c = Con::Int;
            for _ in 0..depth {
                c = Con::Mu(
                    recmod::syntax::intern::hc(Kind::Type),
                    recmod::syntax::intern::hc(c),
                );
            }
            (c.clone(), c)
        }
    };
    let limits = Limits::strict().with_deadline_ms(5_000);
    let equi = Tc::with_mode_and_limits(RecMode::Equi, limits).con_equiv(
        &mut Ctx::new(),
        &hc(a.clone()),
        &hc(b.clone()),
        &Kind::Type,
    );
    let iso = Tc::with_mode_and_limits(RecMode::IsoShao, limits).con_equiv(
        &mut Ctx::new(),
        &hc(a.clone()),
        &hc(b.clone()),
        &Kind::Type,
    );
    // §5: IsoShao equality is contained in equi-recursive equality, so
    // an iso acceptance with an equi *semantic* rejection is a bug.
    // Resource verdicts on either side are inconclusive.
    match (&equi, &iso) {
        (Err(e), Ok(())) if !limited(e) => Err(format!(
            "IsoShao accepts but Equi rejects (seed {seed}, size {size}): {e}"
        )),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Class 4: interning differential
// ---------------------------------------------------------------------

/// Reference structural equality on kinds: a deep tree walk that never
/// consults interning ids, used to cross-check the id-based fast path.
fn deep_eq_kind(a: &Kind, b: &Kind) -> bool {
    match (a, b) {
        (Kind::Type, Kind::Type) | (Kind::Unit, Kind::Unit) => true,
        (Kind::Singleton(c1), Kind::Singleton(c2)) => deep_eq_con(c1, c2),
        (Kind::Pi(a1, b1), Kind::Pi(a2, b2)) | (Kind::Sigma(a1, b1), Kind::Sigma(a2, b2)) => {
            deep_eq_kind(a1, a2) && deep_eq_kind(b1, b2)
        }
        _ => false,
    }
}

/// Reference structural equality on constructors (deep walk, no ids).
fn deep_eq_con(a: &Con, b: &Con) -> bool {
    match (a, b) {
        (Con::Var(i), Con::Var(j)) | (Con::Fst(i), Con::Fst(j)) => i == j,
        (Con::Star, Con::Star)
        | (Con::Int, Con::Int)
        | (Con::Bool, Con::Bool)
        | (Con::UnitTy, Con::UnitTy) => true,
        (Con::Lam(k1, b1), Con::Lam(k2, b2)) | (Con::Mu(k1, b1), Con::Mu(k2, b2)) => {
            deep_eq_kind(k1, k2) && deep_eq_con(b1, b2)
        }
        (Con::App(x1, y1), Con::App(x2, y2))
        | (Con::Pair(x1, y1), Con::Pair(x2, y2))
        | (Con::Arrow(x1, y1), Con::Arrow(x2, y2))
        | (Con::Prod(x1, y1), Con::Prod(x2, y2)) => deep_eq_con(x1, x2) && deep_eq_con(y1, y2),
        (Con::Proj1(x1), Con::Proj1(x2)) | (Con::Proj2(x1), Con::Proj2(x2)) => deep_eq_con(x1, x2),
        (Con::Sum(cs1), Con::Sum(cs2)) => {
            cs1.len() == cs2.len() && cs1.iter().zip(cs2).all(|(c1, c2)| deep_eq_con(c1, c2))
        }
        _ => false,
    }
}

/// Rebuilds a constructor bottom-up through fresh `hc` calls, so every
/// node takes the interning path again from scratch.
fn deep_rebuild_con(c: &Con) -> Con {
    use recmod::syntax::intern::hc;
    match c {
        Con::Var(_) | Con::Fst(_) | Con::Star | Con::Int | Con::Bool | Con::UnitTy => c.clone(),
        Con::Lam(k, b) => Con::Lam(hc(deep_rebuild_kind(k)), hc(deep_rebuild_con(b))),
        Con::Mu(k, b) => Con::Mu(hc(deep_rebuild_kind(k)), hc(deep_rebuild_con(b))),
        Con::App(a, b) => Con::App(hc(deep_rebuild_con(a)), hc(deep_rebuild_con(b))),
        Con::Pair(a, b) => Con::Pair(hc(deep_rebuild_con(a)), hc(deep_rebuild_con(b))),
        Con::Proj1(a) => Con::Proj1(hc(deep_rebuild_con(a))),
        Con::Proj2(a) => Con::Proj2(hc(deep_rebuild_con(a))),
        Con::Arrow(a, b) => Con::Arrow(hc(deep_rebuild_con(a)), hc(deep_rebuild_con(b))),
        Con::Prod(a, b) => Con::Prod(hc(deep_rebuild_con(a)), hc(deep_rebuild_con(b))),
        Con::Sum(cs) => Con::Sum(cs.iter().map(|c| hc(deep_rebuild_con(c))).collect()),
    }
}

fn deep_rebuild_kind(k: &Kind) -> Kind {
    use recmod::syntax::intern::hc;
    match k {
        Kind::Type => Kind::Type,
        Kind::Unit => Kind::Unit,
        Kind::Singleton(c) => Kind::Singleton(hc(deep_rebuild_con(c))),
        Kind::Pi(a, b) => Kind::Pi(hc(deep_rebuild_kind(a)), hc(deep_rebuild_kind(b))),
        Kind::Sigma(a, b) => Kind::Sigma(hc(deep_rebuild_kind(a)), hc(deep_rebuild_kind(b))),
    }
}

/// Checks that the hash-consed representation's id-based equality is
/// exactly reference structural equality, on random constructor pairs
/// from every generator family.
fn case_intern_differential(rng: &mut Rng) -> Result<(), String> {
    use recmod::syntax::intern::hc;
    let seed = rng.next_u64();
    let size = rng.range(1, 12);
    let (a, b) = match rng.below(3) {
        0 => recmod_bench::gen_shao_pair(size, seed),
        1 => recmod_bench::gen_unrolled_pair(size, seed),
        _ => recmod_bench::gen_nested_pair(size, seed),
    };
    let reference = deep_eq_con(&a, &b);
    // Interned equality (derived `==` is shallow: variant tag + child
    // ids) must coincide with the deep reference walk.
    if (a == b) != reference {
        return Err(format!(
            "shallow == disagrees with deep structural equality \
             (seed {seed}, size {size}): shallow {}, deep {reference}",
            a == b
        ));
    }
    if (hc(a.clone()).id() == hc(b.clone()).id()) != reference {
        return Err(format!(
            "intern ids disagree with deep structural equality \
             (seed {seed}, size {size})"
        ));
    }
    // Rebuilding every node through fresh intern calls must converge on
    // the identical canonical pointers.
    let ra = hc(deep_rebuild_con(&a));
    if ra != hc(a.clone()) || !deep_eq_con(&ra, &a) {
        return Err(format!(
            "deep rebuild lost canonicity (seed {seed}, size {size})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 5: thread isolation through the parallel driver
// ---------------------------------------------------------------------

/// Compiles a random batch (valid and mutated corpus programs) through
/// the parallel driver on two workers and on one, then checks:
/// identical outcomes (order, status, diagnostics), no internal-error
/// statuses from worker panics, merged worker counters summing to the
/// batch size, and zero bleed into the calling thread's interner
/// counters or telemetry sink. Workers share nothing: each has its own
/// interner, memo caches and sink, so no worker can see another's
/// structure or observations.
fn case_thread_isolation(rng: &mut Rng) -> Result<(), String> {
    use recmod::driver::{compile_batch, DriverConfig, FileStatus, Job};

    let n = rng.range(3, 7);
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let base = match rng.below(3) {
                0 => recmod::corpus::OPAQUE_LIST,
                1 => recmod::corpus::TRANSPARENT_LIST,
                _ => recmod::corpus::EXPR_DECL_RDS,
            };
            let src = if rng.chance(2, 3) {
                mutate(rng, base)
            } else {
                base.to_string()
            };
            Job::new(format!("iso{i}.rm"), src)
        })
        .collect();

    // Observe the calling thread: its interner counters and its own
    // telemetry sink must be untouched by the workers.
    let intern_before = recmod::syntax::intern::intern_stats();
    recmod::telemetry::install(recmod::telemetry::Config::default());
    recmod::telemetry::count("fuzz.sentinel", 1);

    let cfg = DriverConfig {
        jobs: 2,
        limits: Limits::strict(),
        deadline_ms: Some(5_000),
        telemetry: Some(recmod::telemetry::Config::default()),
        ..DriverConfig::default()
    };
    let par = compile_batch(&jobs, &cfg);
    let seq = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 1,
            ..cfg.clone()
        },
    );

    let own = recmod::telemetry::uninstall().ok_or("calling thread's sink vanished")?;
    let intern_after = recmod::syntax::intern::intern_stats();

    if intern_after.hits != intern_before.hits || intern_after.misses != intern_before.misses {
        return Err(format!(
            "worker interning bled into the calling thread: {intern_before:?} -> {intern_after:?}"
        ));
    }
    if own.counter("fuzz.sentinel") != 1 || own.counter("driver.files") != 0 {
        return Err(format!(
            "worker telemetry bled into the calling thread's sink: {:?}",
            own.counters
        ));
    }

    for (a, b) in par.outcomes.iter().zip(&seq.outcomes) {
        if a.status == FileStatus::Internal {
            return Err(format!(
                "panic during parallel compile of {}: {:?}",
                a.name, a.diagnostics
            ));
        }
        if a.status != b.status || a.diagnostics != b.diagnostics || a.summaries != b.summaries {
            return Err(format!(
                "jobs=2 and jobs=1 disagree on {}: {:?} vs {:?}",
                a.name, a.status, b.status
            ));
        }
    }
    if par.exit_code() != seq.exit_code() {
        return Err(format!(
            "exit codes disagree: jobs=2 -> {}, jobs=1 -> {}",
            par.exit_code(),
            seq.exit_code()
        ));
    }
    let merged_files = par
        .merged
        .as_ref()
        .map(|r| r.counter("driver.files"))
        .unwrap_or(0);
    let per_worker: u64 = par
        .workers
        .iter()
        .filter_map(|w| w.report.as_ref())
        .map(|r| r.counter("driver.files"))
        .sum();
    if merged_files != n as u64 || per_worker != n as u64 {
        return Err(format!(
            "driver.files mismatch: merged {merged_files}, per-worker sum {per_worker}, want {n}"
        ));
    }

    Ok(())
}

// ---------------------------------------------------------------------
// Class 6: profiled differential (observation must not perturb)
// ---------------------------------------------------------------------

/// One compile on a fresh big-stack thread and — when `profiled` — a
/// full profiling sink. Returns the verdict (ok?), the rendered
/// diagnostics, the stable error codes, and whether any spans were
/// recorded. A fresh thread per compile keeps the verdict a pure
/// function of the source: neither run can warm the other's interner
/// or memo caches, which are all per-thread.
#[allow(clippy::type_complexity)]
fn compile_fresh(
    src: &str,
    profiled: bool,
) -> Result<(bool, Vec<String>, Vec<&'static str>, bool), String> {
    let src = src.to_string();
    let run = move || {
        if profiled {
            recmod::telemetry::install(recmod::telemetry::Config::profiled());
        }
        let limits = Limits::strict();
        let (ok, diagnostics, codes) = match recmod::surface::compile_with_limits(&src, &limits) {
            Ok(_) => (true, Vec::new(), Vec::new()),
            Err(errors) => (
                false,
                errors.iter().map(|e| format!("{e}")).collect(),
                errors.iter().map(|e| e.code()).collect(),
            ),
        };
        let spans = recmod::telemetry::uninstall().is_some_and(|r| !r.spans.is_empty());
        (ok, diagnostics, codes, spans)
    };
    std::thread::Builder::new()
        .stack_size(recmod::driver::DEFAULT_STACK_SIZE)
        .spawn(run)
        .map_err(|e| format!("spawn failed: {e}"))?
        .join()
        .map_err(|_| "panic during profiled-differential compile".to_string())
}

/// A base program for the observation-focused classes: a corpus entry
/// or a generated expression, mutated half the time.
fn observed_source(rng: &mut Rng) -> String {
    let base = match rng.below(4) {
        0 => recmod::corpus::OPAQUE_LIST.to_string(),
        1 => recmod::corpus::TRANSPARENT_LIST.to_string(),
        2 => recmod::corpus::EXPR_DECL_RDS.to_string(),
        _ => {
            let e = gen_exp(rng, &mut Vec::new(), 0, GenTy::Int, 4);
            let mut src = String::new();
            render(&e, 0, &mut src);
            src
        }
    };
    if rng.chance(1, 2) {
        mutate(rng, &base)
    } else {
        base
    }
}

/// Compiles the same program with and without a profiling sink: the
/// verdicts must be byte-identical (judgement spans, counter samples,
/// and the raised span cap may observe the pipeline but never steer
/// it) — including the stable error codes — and a successful profiled
/// compile must record spans.
fn case_profiled_differential(rng: &mut Rng) -> Result<(), String> {
    let src = observed_source(rng);
    let (plain_ok, plain_diags, plain_codes, _) = compile_fresh(&src, false)?;
    let (prof_ok, prof_diags, prof_codes, prof_spans) = compile_fresh(&src, true)?;
    if plain_ok != prof_ok || plain_diags != prof_diags || plain_codes != prof_codes {
        return Err(format!(
            "profiling changed the verdict on {src:?}: \
             plain ({plain_ok}, {plain_diags:?}, {plain_codes:?}) \
             vs profiled ({prof_ok}, {prof_diags:?}, {prof_codes:?})"
        ));
    }
    if prof_ok && !prof_spans {
        return Err(format!(
            "successful profiled compile recorded no spans on {src:?}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 7: diagnostics serialization totality
// ---------------------------------------------------------------------

/// Is `code` a well-formed stable error code (`K`/`S`/`L`/`I` + three
/// digits)?
fn well_formed_code(code: &str) -> bool {
    code.len() == 4
        && matches!(code.as_bytes()[0], b'K' | b'S' | b'L' | b'I')
        && code.as_bytes()[1..].iter().all(u8::is_ascii_digit)
}

/// Compiles an arbitrary (often mutated) program under strict limits
/// and asserts diagnostics serialization is *total*: every diagnostic
/// carries a well-formed stable code and non-empty provenance, its JSON
/// form parses back with the code intact, and the judgement frame stack
/// is fully unwound when the compile returns (well-nested guards).
fn case_diagnostics_total(rng: &mut Rng) -> Result<(), String> {
    let src = observed_source(rng);
    let run = {
        let src = src.clone();
        move || {
            let limits = Limits::strict();
            let diags = match recmod::surface::compile_with_limits(&src, &limits) {
                Ok(_) => Vec::new(),
                Err(errors) => recmod::surface::diag::from_errors(&src, &errors),
            };
            let depth = recmod::telemetry::diag::frame_depth();
            (diags, depth)
        }
    };
    let (diags, depth) = std::thread::Builder::new()
        .stack_size(recmod::driver::DEFAULT_STACK_SIZE)
        .spawn(run)
        .map_err(|e| format!("spawn failed: {e}"))?
        .join()
        .map_err(|_| format!("panic while building diagnostics for {src:?}"))?;
    if depth != 0 {
        return Err(format!(
            "provenance frames not well-nested: depth {depth} after compile of {src:?}"
        ));
    }
    for d in &diags {
        if !well_formed_code(d.code) {
            return Err(format!("malformed code {:?} on {src:?}", d.code));
        }
        if d.provenance.is_empty() {
            return Err(format!(
                "empty provenance on {} diagnostic for {src:?}",
                d.code
            ));
        }
        let json = d.to_json().to_compact();
        let doc = recmod::telemetry::json::parse(&json)
            .map_err(|e| format!("diagnostic JSON does not parse back ({e}): {json}"))?;
        if doc.get("code").and_then(|c| c.as_str()) != Some(d.code) {
            return Err(format!("code lost in JSON round-trip: {json}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 8: chaos serve (the compile service under fault injection)
// ---------------------------------------------------------------------

/// Drives a batch of (possibly mutated) programs through a live compile
/// server with deterministic fault injection armed, then checks the
/// service contract:
///
/// * exactly one well-formed response per request — no hang, no drop,
///   no duplicate;
/// * every verdict (status, rendered diagnostics, summaries) is
///   byte-identical to the unfaulted `jobs=1` batch driver's on the
///   same sources — faults fire on the first attempt only, so retries
///   always converge to the clean verdict;
/// * requests the plan left unfaulted never show retry or injection
///   artifacts (`seq` equals the submission index because submission is
///   single-threaded, so [`FaultPlan::decide`] replays the server's own
///   fault schedule);
/// * the server drains cleanly: nothing shed, every accepted request
///   completed, every spawned worker joined (kills included — that is
///   the respawn path), and the flight recorder's frame stack balanced
///   around every compile;
/// * telemetry holds under chaos: every response carries a unique
///   16-hex trace id, requests that asked for `trace: true` (half of
///   them — which also proves verdicts do not diverge with tracing on)
///   get balanced span events (one `serve.queue` and one
///   `serve.attempt` per attempt, killed attempts included), and
///   untraced requests get no trace at all.
fn case_chaos_serve(rng: &mut Rng) -> Result<(), String> {
    use recmod::driver::serve::{Request, ResponseStatus, ServeConfig, Server};
    use recmod::driver::{compile_batch, DriverConfig, Job};
    use recmod::telemetry::fault::FaultPlan;
    use recmod::telemetry::json::Json;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    let n = rng.range(6, 13);
    let sources: Vec<String> = (0..n).map(|_| observed_source(rng)).collect();
    let plan = FaultPlan {
        seed: rng.next_u64(),
        rate_ppm: 400_000,
        only: None,
    };
    let limits = Limits::strict();

    // The unfaulted reference: the same sources through the batch
    // driver on one warm worker, no deadline (a genuine wall-clock
    // limit here would be schedule-dependent and break the comparison;
    // injected deadline storms do not need a real deadline).
    let jobs: Vec<Job> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| Job::new(format!("chaos{i}.rm"), s.clone()))
        .collect();
    let batch = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 1,
            limits,
            ..DriverConfig::default()
        },
    );

    let mut server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: n, // roomy: nothing may be shed
        limits,
        default_deadline_ms: None,
        backoff_ms: 1,
        faults: Some(plan),
        crash_dir: None,
        trace_seed: plan.seed,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server failed to start: {e}"))?;

    // Single-threaded submission: request i is admission seq i. Every
    // other request asks for its trace — the verdict comparison below
    // covers both traced and untraced requests.
    let (tx, rx) = channel();
    for (i, src) in sources.iter().enumerate() {
        let mut req = Request::new(i as u64, format!("chaos{i}.rm"), src.clone());
        req.trace = i % 2 == 0;
        server.submit(req, tx.clone());
    }
    drop(tx);

    let mut responses: Vec<Option<recmod::driver::serve::Response>> =
        (0..n).map(|_| None).collect();
    for _ in 0..n {
        let r = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "lost response: server wedged or dropped a request".to_string())?;
        let Some(id) = r.id.as_u64() else {
            return Err(format!("response with non-integer id: {:?}", r.id));
        };
        let slot = responses
            .get_mut(id as usize)
            .ok_or_else(|| format!("response for unknown id {id}"))?;
        if slot.is_some() {
            return Err(format!("duplicate response for id {id}"));
        }
        *slot = Some(r);
    }
    server.shutdown();
    let stats = server.stats();

    for (i, (slot, outcome)) in responses.iter().zip(&batch.outcomes).enumerate() {
        let r = slot
            .as_ref()
            .ok_or_else(|| format!("no response for {i}"))?;
        let faulted = plan.decide(i as u64).is_some();
        if r.status != ResponseStatus::from(outcome.status) {
            return Err(format!(
                "chaos{i}.rm (faulted: {faulted}): serve status {} vs batch {:?}",
                r.status.label(),
                outcome.status
            ));
        }
        if r.rendered != outcome.diagnostics || r.summaries != outcome.summaries {
            return Err(format!(
                "chaos{i}.rm (faulted: {faulted}): serve verdict diverges from batch\n\
                 serve:  {:?}\n batch: {:?}",
                r.rendered, outcome.diagnostics
            ));
        }
        if !faulted && (r.attempts != 1 || !r.injected.is_empty()) {
            return Err(format!(
                "chaos{i}.rm was never faulted but shows attempts {} / injected {:?}",
                r.attempts, r.injected
            ));
        }
    }

    if stats.shed != 0 || stats.accepted != n as u64 || stats.completed != n as u64 {
        return Err(format!(
            "request accounting broken: accepted {}, completed {}, shed {} (want {n}, {n}, 0)",
            stats.accepted, stats.completed, stats.shed
        ));
    }
    if stats.workers_spawned != stats.workers_joined {
        return Err(format!(
            "leaked workers: spawned {} joined {}",
            stats.workers_spawned, stats.workers_joined
        ));
    }
    if stats.frame_imbalance != 0 {
        return Err(format!(
            "flight recorder unbalanced {} times across compiles",
            stats.frame_imbalance
        ));
    }

    let mut trace_ids = std::collections::BTreeSet::new();
    for (i, slot) in responses.iter().enumerate() {
        let Some(r) = slot.as_ref() else { continue };
        let tid = r
            .trace_id
            .as_ref()
            .ok_or_else(|| format!("chaos{i}.rm: admitted response without a trace id"))?;
        if tid.len() != 16 || !tid.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("chaos{i}.rm: malformed trace id `{tid}`"));
        }
        if !trace_ids.insert(tid.clone()) {
            return Err(format!("chaos{i}.rm: duplicate trace id `{tid}`"));
        }
        if i % 2 == 0 {
            let events = r
                .trace
                .as_ref()
                .and_then(|t| t.get("events"))
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("chaos{i}.rm asked for a trace but got none"))?;
            let named = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                    .count()
            };
            let (queues, attempts) = (named("serve.queue"), named("serve.attempt"));
            if queues != r.attempts as usize || attempts != r.attempts as usize {
                return Err(format!(
                    "chaos{i}.rm: unbalanced span events over {} attempt(s): \
                     {queues} serve.queue, {attempts} serve.attempt",
                    r.attempts
                ));
            }
        } else if r.trace.is_some() {
            return Err(format!(
                "chaos{i}.rm never asked for a trace but one was echoed"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 9: NbE differential (the two equivalence engines must agree)
// ---------------------------------------------------------------------

/// A kernel outcome as comparable plain data: the result's structural
/// rendering on success, the rendered message plus stable code on a
/// *semantic* failure, and `None` on a resource verdict — the engines
/// deliberately meter fuel differently (per-transition vs
/// per-substitution), so limit verdicts are inconclusive, like class
/// 3's treatment.
fn engine_outcome<T: std::fmt::Debug>(
    r: Result<T, TypeError>,
) -> Option<Result<String, (String, &'static str)>> {
    match r {
        Ok(v) => Some(Ok(format!("{v:?}"))),
        Err(e) if e.is_limit() => None,
        Err(e) => Some(Err((format!("{e}"), e.code()))),
    }
}

/// Random well- and ill-kinded constructors through whnf, kind
/// synthesis, and equivalence under both engines, plus a whole-program
/// compile under each engine on fresh threads: everything observable —
/// normal forms, verdicts, stable codes, rendered diagnostics — must be
/// identical.
fn case_nbe_differential(rng: &mut Rng) -> Result<(), String> {
    use recmod::kernel::EquivEngine;
    use recmod::syntax::intern::hc;

    let seed = rng.next_u64();
    let size = rng.range(1, 10);
    let (a, b) = match rng.below(3) {
        0 => recmod_bench::gen_shao_pair(size, seed),
        1 => recmod_bench::gen_unrolled_pair(size, seed),
        _ => recmod_bench::gen_nested_pair(size, seed),
    };
    // Half the time, break kinding with an ill-kinded elimination so
    // the engines' error paths (stuck-spine rebuilds, NotAPiKind /
    // NotASigmaKind reporting) are compared too, not just the happy
    // path.
    let (a, b) = if rng.chance(1, 2) {
        match rng.below(3) {
            0 => (Con::Proj1(hc(a)), b),
            1 => (Con::App(hc(a), hc(Con::Star)), b),
            _ => (a, Con::Proj2(hc(b))),
        }
    } else {
        (a, b)
    };

    // Fuel-only limits: a wall-clock deadline would make verdicts
    // schedule-dependent and break the differential.
    let limits = Limits::default();
    let run = |engine: EquivEngine| {
        let tc = Tc::with_engine(engine, RecMode::Equi, limits);
        let mut ctx = Ctx::new();
        [
            engine_outcome(tc.whnf(&mut ctx, &hc(a.clone()))),
            engine_outcome(tc.whnf(&mut ctx, &hc(b.clone()))),
            engine_outcome(tc.synth_con(&mut ctx, &hc(a.clone()))),
            engine_outcome(tc.synth_con(&mut ctx, &hc(b.clone()))),
            engine_outcome(tc.con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)),
        ]
    };
    let nbe = run(EquivEngine::Nbe);
    let subst = run(EquivEngine::Subst);
    for (what, (x, y)) in ["whnf a", "whnf b", "synth a", "synth b", "equiv"]
        .iter()
        .zip(nbe.iter().zip(&subst))
    {
        if let (Some(x), Some(y)) = (x, y) {
            if x != y {
                return Err(format!(
                    "engines disagree on {what} (seed {seed}, size {size}):\n \
                     nbe:   {x:?}\n subst: {y:?}"
                ));
            }
        }
    }

    // A whole program through the pipeline under each engine, on fresh
    // big-stack threads so neither run warms the other's interner or
    // caches. `set_thread_engine` scopes the override to the spawned
    // thread; verdict, codes, and rendered diagnostics must agree
    // unless either side hit a resource limit (`L…` codes).
    let src = observed_source(rng);
    let compile_under = |engine: EquivEngine| {
        let worker_src = src.clone();
        std::thread::Builder::new()
            .stack_size(recmod::driver::DEFAULT_STACK_SIZE)
            .spawn(move || {
                recmod::kernel::set_thread_engine(Some(engine));
                let out =
                    match recmod::surface::compile_with_limits(&worker_src, &Limits::default()) {
                        Ok(_) => (true, Vec::new(), Vec::new()),
                        Err(errors) => (
                            false,
                            errors.iter().map(|e| format!("{e}")).collect::<Vec<_>>(),
                            errors.iter().map(|e| e.code()).collect::<Vec<_>>(),
                        ),
                    };
                recmod::kernel::set_thread_engine(None);
                out
            })
            .map_err(|e| format!("spawn failed: {e}"))?
            .join()
            .map_err(|_| format!("panic compiling {src:?} under {engine:?}"))
    };
    let nbe_c = compile_under(EquivEngine::Nbe)?;
    let sub_c = compile_under(EquivEngine::Subst)?;
    let hit_limit = |codes: &[&str]| codes.iter().any(|c| c.starts_with('L'));
    if hit_limit(&nbe_c.2) || hit_limit(&sub_c.2) {
        return Ok(()); // resource verdicts are engine-metering-dependent
    }
    if nbe_c != sub_c {
        return Err(format!(
            "pipeline verdicts disagree between engines on {src:?}:\n \
             nbe:   {nbe_c:?}\n subst: {sub_c:?}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 10: rewrite-memo differential (memoized shift/subst/selfify,
// on constructors, kinds and types)
// ---------------------------------------------------------------------

/// `Fst` indices the class-10 generator draws start here: far above any
/// binder depth it builds, so a substitution for index `0` never meets
/// an `Fst` at its target (that would be an ill-sorted input).
const MEMO_FST_BASE: usize = 40;

/// The class-10 reference maps: the same rules as the library's shift
/// and constructor substitution, with no floor and no identity, so they
/// visit and rebuild every node and never touch the rewrite memo.
enum RefMap<'a> {
    Shift { by: isize, cutoff: usize },
    Subst { replacement: &'a Con },
}

impl recmod::syntax::map::VarMap for RefMap<'_> {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        match *self {
            RefMap::Shift { by, cutoff } if i >= cutoff + d => Con::Var((i as isize + by) as usize),
            RefMap::Shift { .. } => Con::Var(i),
            RefMap::Subst { replacement } if i == d => ref_shift_con(replacement, d as isize, 0),
            RefMap::Subst { .. } => Con::Var(if i > d { i - 1 } else { i }),
        }
    }
    fn tvar(&mut self, _: usize, i: usize) -> recmod::syntax::ast::Term {
        recmod::syntax::ast::Term::Var(i)
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        match *self {
            RefMap::Shift { by, cutoff } if i >= cutoff + d => Con::Fst((i as isize + by) as usize),
            RefMap::Shift { .. } => Con::Fst(i),
            RefMap::Subst { .. } => Con::Fst(if i > d { i - 1 } else { i }),
        }
    }
    fn snd(&mut self, _: usize, i: usize) -> recmod::syntax::ast::Term {
        recmod::syntax::ast::Term::Snd(i)
    }
    fn mvar(&mut self, _: usize, i: usize) -> recmod::syntax::ast::Module {
        recmod::syntax::ast::Module::Var(i)
    }
}

fn ref_shift_con(c: &Con, by: isize, cutoff: usize) -> Con {
    recmod::syntax::map::map_con(c, 0, &mut RefMap::Shift { by, cutoff })
}

fn ref_shift_kind(k: &Kind, by: isize, cutoff: usize) -> Kind {
    recmod::syntax::map::map_kind(k, 0, &mut RefMap::Shift { by, cutoff })
}

fn ref_shift_ty(t: &Ty, by: isize, cutoff: usize) -> Ty {
    recmod::syntax::map::map_ty(t, 0, &mut RefMap::Shift { by, cutoff })
}

fn ref_subst_con(c: &Con, replacement: &Con) -> Con {
    recmod::syntax::map::map_con(c, 0, &mut RefMap::Subst { replacement })
}

fn ref_subst_kind(k: &Kind, replacement: &Con) -> Kind {
    recmod::syntax::map::map_kind(k, 0, &mut RefMap::Subst { replacement })
}

fn ref_subst_ty(t: &Ty, replacement: &Con) -> Ty {
    recmod::syntax::map::map_ty(t, 0, &mut RefMap::Subst { replacement })
}

/// Reference selfification over the reference maps (paper Figure 2,
/// extended to Σ).
fn ref_selfify(c: &Con, k: &Kind) -> Kind {
    use recmod::syntax::intern::hc;
    match k {
        Kind::Type => Kind::Singleton(hc(c.clone())),
        Kind::Unit | Kind::Singleton(_) => k.clone(),
        Kind::Pi(k1, k2) => {
            let app = Con::App(hc(ref_shift_con(c, 1, 0)), hc(Con::Var(0)));
            Kind::Pi(k1.clone(), hc(ref_selfify(&app, k2)))
        }
        Kind::Sigma(k1, k2) => {
            let p1 = Con::Proj1(hc(c.clone()));
            let l = ref_selfify(&p1, k1);
            let r = ref_selfify(&Con::Proj2(hc(c.clone())), &ref_subst_kind(k2, &p1));
            Kind::Sigma(hc(l), hc(ref_shift_kind(&r, 1, 0)))
        }
    }
}

/// Largest tree (node count, shared subtrees counted once per path) a
/// class-10 pool keeps: substitution multiplies tree sizes, and the
/// reference maps walk trees, not DAGs.
const MEMO_POOL_NODES: usize = 64;

/// Spends one unit of `budget` per tree node of `c`; `false` once it
/// runs out.
fn con_fits(c: &Con, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    match c {
        Con::Var(_) | Con::Fst(_) | Con::Star | Con::Int | Con::Bool | Con::UnitTy => true,
        Con::Lam(k, b) | Con::Mu(k, b) => kind_fits(k, budget) && con_fits(b, budget),
        Con::App(a, b) | Con::Pair(a, b) | Con::Arrow(a, b) | Con::Prod(a, b) => {
            con_fits(a, budget) && con_fits(b, budget)
        }
        Con::Proj1(a) | Con::Proj2(a) => con_fits(a, budget),
        Con::Sum(cs) => cs.iter().all(|c| con_fits(c, budget)),
    }
}

/// [`con_fits`] for kinds.
fn kind_fits(k: &Kind, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    match k {
        Kind::Type | Kind::Unit => true,
        Kind::Singleton(c) => con_fits(c, budget),
        Kind::Pi(a, b) | Kind::Sigma(a, b) => kind_fits(a, budget) && kind_fits(b, budget),
    }
}

/// [`con_fits`] for types.
fn ty_fits(t: &Ty, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    match t {
        Ty::Unit => true,
        Ty::Con(c) => con_fits(c, budget),
        Ty::Total(a, b) | Ty::Partial(a, b) | Ty::Prod(a, b) => {
            ty_fits(a, budget) && ty_fits(b, budget)
        }
        Ty::Forall(k, b) => kind_fits(k, budget) && ty_fits(b, budget),
    }
}

/// Does `t` fit a class-10 pool?
fn small_ty(t: &Ty) -> bool {
    ty_fits(t, &mut MEMO_POOL_NODES.to_owned())
}

/// Does `c` fit a class-10 pool?
fn small_con(c: &Con) -> bool {
    con_fits(c, &mut MEMO_POOL_NODES.to_owned())
}

/// Does `k` fit a class-10 pool?
fn small_kind(k: &Kind) -> bool {
    kind_fits(k, &mut MEMO_POOL_NODES.to_owned())
}

/// A random open constructor over `binders` enclosing binders. Leaves
/// reuse earlier pool entries (so rewrites meet shared subtrees) and
/// closed μ-constructors from the bench generator.
fn gen_open_con(rng: &mut Rng, size: usize, binders: usize, pool: &[HC<Con>]) -> Con {
    use recmod::syntax::intern::hc;
    if size <= 1 {
        return match rng.below(7) {
            0 | 1 => Con::Var(rng.range(0, binders + 3)),
            2 => Con::Fst(MEMO_FST_BASE + rng.range(0, 3)),
            3 if !pool.is_empty() => pool[rng.range(0, pool.len())].take(),
            4 => recmod_bench::gen_regular_mu(rng.range(1, 6), rng.next_u64()),
            5 => Con::Int,
            _ => Con::Bool,
        };
    }
    let sub = size - 1;
    let half = sub / 2;
    let con = |rng: &mut Rng, size: usize, binders: usize| {
        hc(gen_open_con(rng, size.max(1), binders, pool))
    };
    match rng.below(9) {
        0 => Con::Lam(
            hc(gen_open_kind(rng, half, binders, pool)),
            con(rng, sub - half, binders + 1),
        ),
        1 => Con::Mu(hc(Kind::Type), con(rng, sub, binders + 1)),
        2 => Con::App(con(rng, half, binders), con(rng, sub - half, binders)),
        3 => Con::Pair(con(rng, half, binders), con(rng, sub - half, binders)),
        4 => Con::Proj1(con(rng, sub, binders)),
        5 => Con::Proj2(con(rng, sub, binders)),
        6 => Con::Arrow(con(rng, half, binders), con(rng, sub - half, binders)),
        7 => Con::Prod(con(rng, half, binders), con(rng, sub - half, binders)),
        _ => Con::Sum(vec![con(rng, half, binders), con(rng, sub - half, binders)]),
    }
}

/// A random kind over `binders` enclosing binders, with singletons of
/// open constructors and dependent Π/Σ.
fn gen_open_kind(rng: &mut Rng, size: usize, binders: usize, pool: &[HC<Con>]) -> Kind {
    use recmod::syntax::intern::hc;
    if size <= 1 {
        return match rng.below(4) {
            0 => Kind::Unit,
            1 => Kind::Singleton(hc(gen_open_con(rng, 1, binders, pool))),
            _ => Kind::Type,
        };
    }
    let sub = size - 1;
    let half = sub / 2;
    match rng.below(4) {
        0 => Kind::Singleton(hc(gen_open_con(rng, sub, binders, pool))),
        1 => Kind::Pi(
            hc(gen_open_kind(rng, half, binders, pool)),
            hc(gen_open_kind(rng, sub - half, binders + 1, pool)),
        ),
        _ => Kind::Sigma(
            hc(gen_open_kind(rng, half, binders, pool)),
            hc(gen_open_kind(rng, sub - half, binders + 1, pool)),
        ),
    }
}

/// A random open type over `binders` enclosing binders: monotypes of
/// open constructors, total and partial arrows, products and `∀`, with
/// leaves that reuse earlier pool entries.
fn gen_open_ty(rng: &mut Rng, size: usize, binders: usize, cons: &[HC<Con>], tys: &[HC<Ty>]) -> Ty {
    use recmod::syntax::intern::hc;
    if size <= 1 {
        return match rng.below(4) {
            0 => Ty::Unit,
            1 if !tys.is_empty() => tys[rng.range(0, tys.len())].take(),
            _ => {
                let size = rng.range(1, 6);
                Ty::Con(hc(gen_open_con(rng, size, binders, cons)))
            }
        };
    }
    let sub = size - 1;
    let half = sub / 2;
    let ty = |rng: &mut Rng, size: usize, binders: usize| {
        hc(gen_open_ty(rng, size.max(1), binders, cons, tys))
    };
    match rng.below(5) {
        0 => Ty::Total(ty(rng, half, binders), ty(rng, sub - half, binders)),
        1 => Ty::Partial(ty(rng, half, binders), ty(rng, sub - half, binders)),
        2 => Ty::Prod(ty(rng, half, binders), ty(rng, sub - half, binders)),
        3 => Ty::Forall(
            hc(gen_open_kind(rng, half, binders, cons)),
            ty(rng, sub - half, binders + 1),
        ),
        _ => Ty::Con(hc(gen_open_con(rng, sub, binders, cons))),
    }
}

/// Random sequences of memoized shifts, constructor substitutions and
/// selfifications over pools of shared constructors, kinds and types, with
/// sweeps interleaved; every result must be the identical pointer the
/// memo-free reference builds. Results join the pools, so later steps
/// rewrite earlier results and repeat earlier rewrites (memo hits), and
/// a case makes enough distinct rewrites to overwrite slots.
fn case_subst_memo_differential(rng: &mut Rng) -> Result<(), String> {
    use recmod::kernel::singleton::selfify_hc;
    use recmod::syntax::intern::{hc, sweep_now};
    use recmod::syntax::subst::{
        shift_con_hc, shift_kind_hc, shift_ty_hc, subst_con_con_hc, subst_con_kind,
        subst_con_kind_hc, subst_con_ty_hc,
    };

    let mut cons: Vec<HC<Con>> = Vec::new();
    let mut kinds: Vec<HC<Kind>> = Vec::new();
    let mut tys: Vec<HC<Ty>> = Vec::new();
    while cons.len() < 8 || kinds.len() < 8 || tys.len() < 8 {
        let size = rng.range(1, 24);
        let c = gen_open_con(rng, size, 0, &cons);
        if small_con(&c) {
            cons.push(hc(c));
        }
        let size = rng.range(1, 12);
        let k = gen_open_kind(rng, size, 0, &cons);
        if small_kind(&k) {
            kinds.push(hc(k));
        }
        let size = rng.range(1, 16);
        let t = gen_open_ty(rng, size, 0, &cons, &tys);
        if small_ty(&t) {
            tys.push(hc(t));
        }
    }
    let steps = rng.range(200, 600);
    for step in 0..steps {
        let c = cons[rng.range(0, cons.len())].clone();
        let k = kinds[rng.range(0, kinds.len())].clone();
        let t = tys[rng.range(0, tys.len())].clone();
        let by = rng.range(1, 4) as isize;
        let cutoff = rng.range(0, 4);
        let fail = |what: &str| Err(format!("step {step}: {what} differs from the reference"));
        match rng.below(10) {
            0 => {
                let out = shift_con_hc(&c, by, cutoff);
                if !HC::ptr_eq(&out, &hc(ref_shift_con(&c, by, cutoff))) {
                    return fail("shift_con_hc");
                }
                // Shifting back down is the strengthening the kernel does
                // after every binder; it must restore the input.
                let back = shift_con_hc(&out, -by, cutoff);
                if !HC::ptr_eq(&back, &hc(ref_shift_con(&out, -by, cutoff)))
                    || !HC::ptr_eq(&back, &c)
                {
                    return fail("shift_con_hc by a negative amount");
                }
                if small_con(&out) {
                    cons.push(out);
                }
            }
            1 => {
                let out = shift_kind_hc(&k, by, cutoff);
                if !HC::ptr_eq(&out, &hc(ref_shift_kind(&k, by, cutoff))) {
                    return fail("shift_kind_hc");
                }
                let back = shift_kind_hc(&out, -by, cutoff);
                if !HC::ptr_eq(&back, &hc(ref_shift_kind(&out, -by, cutoff)))
                    || !HC::ptr_eq(&back, &k)
                {
                    return fail("shift_kind_hc by a negative amount");
                }
                if small_kind(&out) {
                    kinds.push(out);
                }
            }
            2 | 3 => {
                let rep = cons[rng.range(0, cons.len())].take();
                let out = subst_con_con_hc(&c, &rep);
                if !HC::ptr_eq(&out, &hc(ref_subst_con(&c, &rep))) {
                    return fail("subst_con_con_hc");
                }
                if small_con(&out) {
                    cons.push(out);
                }
            }
            4 | 5 => {
                let rep = cons[rng.range(0, cons.len())].take();
                let out = subst_con_kind_hc(&k, &rep);
                let reference = hc(ref_subst_kind(&k, &rep));
                if !HC::ptr_eq(&out, &reference)
                    || !HC::ptr_eq(&hc(subst_con_kind(&k, &rep)), &reference)
                {
                    return fail("subst_con_kind");
                }
                if small_kind(&out) {
                    kinds.push(out);
                }
            }
            6 => {
                let out = selfify_hc(&c, &k);
                if !HC::ptr_eq(&out, &hc(ref_selfify(&c, &k))) {
                    return fail("selfify_hc");
                }
                if small_kind(&out) {
                    kinds.push(out);
                }
            }
            7 => {
                let out = shift_ty_hc(&t, by, cutoff);
                if !HC::ptr_eq(&out, &hc(ref_shift_ty(&t, by, cutoff))) {
                    return fail("shift_ty_hc");
                }
                let back = shift_ty_hc(&out, -by, cutoff);
                if !HC::ptr_eq(&back, &hc(ref_shift_ty(&out, -by, cutoff)))
                    || !HC::ptr_eq(&back, &t)
                {
                    return fail("shift_ty_hc by a negative amount");
                }
                if small_ty(&out) {
                    tys.push(out);
                }
            }
            8 => {
                let rep = cons[rng.range(0, cons.len())].take();
                let out = subst_con_ty_hc(&t, &rep);
                if !HC::ptr_eq(&out, &hc(ref_subst_ty(&t, &rep))) {
                    return fail("subst_con_ty_hc");
                }
                if small_ty(&out) {
                    tys.push(out);
                }
            }
            _ => {
                // Drop some pool entries and sweep, so the memo outlives
                // its keys' nodes and re-interned structure gets fresh
                // ids.
                let keep = cons.len().min(16);
                cons.drain(..cons.len() - keep);
                let keep = kinds.len().min(16);
                kinds.drain(..kinds.len() - keep);
                let keep = tys.len().min(16);
                tys.drain(..tys.len() - keep);
                sweep_now();
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Class 11: history independence (a renewed elaborator is a fresh one)
// ---------------------------------------------------------------------

/// What one compile shows: verdict, stable codes, rendered diagnostics
/// and the kernel's fuel per operation.
type Observed = (bool, Vec<&'static str>, Vec<String>, [u64; 12]);

/// Compiles `src` on `elab` and hands the elaborator back with what
/// the compile showed.
fn compile_on(elab: Elaborator, src: &str) -> (Observed, Elaborator) {
    match recmod::surface::pipeline::compile_with_limits_in(elab, src) {
        Ok(c) => {
            let fuel = c.elab.tc.stats().fuel_by_op;
            ((true, Vec::new(), Vec::new(), fuel), c.elab)
        }
        Err((errors, elab)) => {
            let codes = errors.iter().map(|e| e.code()).collect();
            let diags = errors.iter().map(|e| format!("{e}")).collect();
            ((false, codes, diags, elab.tc.stats().fuel_by_op), elab)
        }
    }
}

/// Runs `f` on a fresh big-stack thread.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    std::thread::Builder::new()
        .stack_size(recmod::driver::DEFAULT_STACK_SIZE)
        .spawn(f)
        .map_err(|e| format!("spawn failed: {e}"))?
        .join()
        .map_err(|_| "panic during history-independence compile".to_string())
}

/// Compiles program B under a fuel budget near what B needs, three
/// ways: on a fresh elaborator on a fresh thread; on one elaborator
/// that compiled program A first and was then renewed; and on a fresh
/// thread while another thread compiles A and holds its result. Near
/// the budget one unit of fuel decides the verdict, so anything a
/// renewed elaborator or another thread carried into B's compile would
/// show. The three must agree on verdict, stable codes, rendered
/// diagnostics (an `L003` names the top fuel consumers) and the fuel
/// spent per operation.
fn case_history_independence(rng: &mut Rng) -> Result<(), String> {
    let a = observed_source(rng);
    let b = observed_source(rng);
    let fresh = |src: String, limits: Limits| {
        on_fresh_thread(move || compile_on(Elaborator::with_limits(limits), &src).0)
    };
    let need: u64 = fresh(b.clone(), Limits::strict())?.3.iter().sum();
    let fuel = need - need / 8 + rng.below(need / 8 + 3);
    let limits = Limits::strict().with_fuel(fuel);

    let alone = fresh(b.clone(), limits)?;
    let after_a = {
        let (a, b) = (a.clone(), b.clone());
        on_fresh_thread(move || {
            let (_, mut elab) = compile_on(Elaborator::with_limits(limits), &a);
            elab.renew(limits);
            compile_on(elab, &b).0
        })?
    };
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let holder = std::thread::Builder::new()
        .stack_size(recmod::driver::DEFAULT_STACK_SIZE)
        .spawn(move || {
            let held = compile_on(Elaborator::with_limits(limits), &a);
            let _ = wait.recv();
            drop(held);
        })
        .map_err(|e| format!("spawn failed: {e}"))?;
    let beside = fresh(b.clone(), limits);
    let _ = done.send(());
    holder
        .join()
        .map_err(|_| "panic during history-independence compile".to_string())?;
    let beside = beside?;

    for (way, got) in [("after A", &after_a), ("beside A", &beside)] {
        if *got != alone {
            return Err(format!(
                "compiling {b:?} at fuel {fuel} {way} differs from a fresh compile: \
                 {got:?} vs {alone:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Number of case classes; a seed's class is `seed % CLASS_COUNT`, so
/// any `CLASS_COUNT` consecutive seeds cover every class once.
pub const CLASS_COUNT: u64 = 12;

/// Human-readable class name for a seed (for failure reports).
pub fn case_class(seed: u64) -> &'static str {
    match seed % CLASS_COUNT {
        0 => "expression-differential",
        1 => "module-differential",
        2 => "ill-formed-input",
        3 => "kernel-mu",
        4 => "intern-differential",
        5 => "thread-isolation",
        6 => "profiled-differential",
        7 => "diagnostics-total",
        8 => "chaos-serve",
        9 => "nbe-differential",
        10 => "subst-memo-differential",
        _ => "history-independence",
    }
}

/// Runs the case determined by `seed`. `Err` describes a differential
/// mismatch or a structured-robustness violation; panics are left to
/// the caller to catch (they are always bugs).
pub fn run_case(seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    match seed % CLASS_COUNT {
        0 => case_expression_differential(&mut rng),
        1 => case_module_differential(&mut rng),
        2 => case_ill_formed(&mut rng),
        3 => case_kernel_mu(&mut rng),
        4 => case_intern_differential(&mut rng),
        5 => case_thread_isolation(&mut rng),
        6 => case_profiled_differential(&mut rng),
        7 => case_diagnostics_total(&mut rng),
        8 => case_chaos_serve(&mut rng),
        9 => case_nbe_differential(&mut rng),
        10 => case_subst_memo_differential(&mut rng),
        _ => case_history_independence(&mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let ea = gen_exp(&mut a, &mut Vec::new(), MAX_FN_NESTING, GenTy::Int, 5);
        let eb = gen_exp(&mut b, &mut Vec::new(), MAX_FN_NESTING, GenTy::Int, 5);
        let (mut sa, mut sb) = (String::new(), String::new());
        render(&ea, 0, &mut sa);
        render(&eb, 0, &mut sb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn reference_interpreter_basics() {
        // (1 + 2) * 3 = 9, and 9 < 10.
        let e = GenExp::Bin(
            GenOp::Lt,
            Box::new(GenExp::Bin(
                GenOp::Mul,
                Box::new(GenExp::Bin(
                    GenOp::Add,
                    Box::new(GenExp::Int(1)),
                    Box::new(GenExp::Int(2)),
                )),
                Box::new(GenExp::Int(3)),
            )),
            Box::new(GenExp::Int(10)),
        );
        assert_eq!(ref_eval(&e, &mut Vec::new()), GenVal::Bool(true));
    }

    #[test]
    fn mutation_never_panics_the_mutator() {
        let mut rng = Rng::new(99);
        for _ in 0..50 {
            let _ = mutate(&mut rng, recmod::corpus::OPAQUE_LIST);
        }
    }
}
