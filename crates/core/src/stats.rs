//! Machine-readable pipeline statistics (`recmodc --stats[=json]`).
//!
//! [`StatsReport`] gathers every layer's counters into one value: the
//! kernel's judgement/fuel counters ([`recmod_kernel::KernelStats`]),
//! per-binding elaboration timings recorded by the surface elaborator,
//! the phase splitter's node counts, the evaluator's
//! [`recmod_eval::EvalStats`], and — when a telemetry sink was installed
//! — the raw counter/span [`recmod_telemetry::Report`]. [`StatsReport::to_json`]
//! renders the whole thing with the zero-dependency JSON emitter from
//! [`recmod_telemetry::json`].

use recmod_eval::EvalStats;
use recmod_kernel::{FuelOp, KernelStats};
use recmod_syntax::intern::{intern_stats, InternStats};
use recmod_telemetry::json::Json;
use recmod_telemetry::{Report, Span};

use crate::Compiled;

/// Per-binding elaboration statistics, lifted off
/// [`recmod_surface::elab::TopBinding`].
#[derive(Debug, Clone)]
pub struct BindingStats {
    /// The binding's surface (or generated) name.
    pub name: String,
    /// Wall-clock nanoseconds spent elaborating the declaration.
    pub elab_nanos: u64,
    /// Kernel judgement counters attributable to the declaration.
    pub kernel: KernelStats,
}

/// Statistics for one end-to-end pipeline run.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Aggregate kernel counters for the whole compilation.
    pub kernel: KernelStats,
    /// The equivalence engine the kernel ran (`"nbe"` or `"subst"`) —
    /// the whnf/cache counters below mean different things per engine,
    /// so both text and JSON output name it explicitly.
    pub equiv_engine: &'static str,
    /// The kernel's fuel budget (what `--fuel` set, or the default).
    pub fuel_budget: u64,
    /// Per-binding elaboration timings and judgement counts.
    pub bindings: Vec<BindingStats>,
    /// Evaluator counters, when the program was run.
    pub eval: Option<EvalStats>,
    /// The telemetry sink's report (counters, spans, trace), when a sink
    /// was installed around the run.
    pub telemetry: Option<Report>,
    /// Hash-consing activity on this thread (snapshotted at collect time).
    pub intern: InternStats,
}

impl StatsReport {
    /// Assembles a report from a compiled program plus whatever the
    /// caller collected around it.
    pub fn collect(
        compiled: &Compiled,
        eval: Option<EvalStats>,
        telemetry: Option<Report>,
    ) -> StatsReport {
        StatsReport {
            kernel: compiled.elab.tc.stats(),
            equiv_engine: compiled.elab.tc.engine().name(),
            fuel_budget: compiled.elab.tc.fuel_budget(),
            bindings: compiled
                .elab
                .bindings
                .iter()
                .map(|b| BindingStats {
                    name: b.name.clone(),
                    elab_nanos: b.elab_nanos,
                    kernel: b.kernel,
                })
                .collect(),
            eval,
            telemetry,
            intern: intern_stats(),
        }
    }

    /// The full report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            (
                "schema_version",
                Json::UInt(recmod_telemetry::SCHEMA_VERSION),
            ),
            (
                "kernel",
                kernel_json(
                    &self.kernel,
                    Some(self.fuel_budget),
                    Some(self.equiv_engine),
                ),
            ),
            (
                "bindings",
                Json::Arr(self.bindings.iter().map(binding_json).collect()),
            ),
            ("phase", self.phase_json()),
            ("surface", self.surface_json()),
            ("syntax", self.syntax_json()),
        ];
        doc.push((
            "eval",
            match &self.eval {
                Some(e) => eval_json(e),
                None => Json::Null,
            },
        ));
        if let Some(report) = &self.telemetry {
            doc.push((
                "spans",
                Json::Arr(report.spans.iter().map(span_json).collect()),
            ));
        }
        Json::obj(doc)
    }

    /// Renders the report for humans, one counter per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let k = &self.kernel;
        out.push_str(&format!(
            "kernel: fuel {} / {} budget, {} mu-unrolls, \
             {} assumption inserts (hwm {}), {} singleton short-circuits\n",
            k.fuel_used(),
            self.fuel_budget,
            k.mu_unrolls,
            k.assumption_inserts,
            k.assumption_hwm,
            k.singleton_shortcuts,
        ));
        for (op, fuel) in k.fuel_pairs().filter(|&(_, f)| f > 0) {
            out.push_str(&format!("  fuel[{}]: {}\n", op.key(), fuel));
        }
        // The engine determines which step counters are live: the NbE
        // machine reports eval/quote/env-alloc counts, the substitution
        // reference engine the classic whnf step count.
        match self.equiv_engine {
            "subst" => out.push_str(&format!(
                "kernel engine [subst]: {} whnf steps\n",
                k.whnf_steps,
            )),
            engine => out.push_str(&format!(
                "kernel engine [{}]: {} eval steps, {} quote ops, {} env allocs\n",
                engine, k.eval_steps, k.quote_nodes, k.env_allocs,
            )),
        }
        out.push_str(&format!(
            "kernel caches [{}]: {} whnf hits / {} misses, \
             {} synth hits / {} misses, {} ptr-eq equalities, \
             {} equiv cache hits\n",
            self.equiv_engine,
            k.whnf_cache_hits,
            k.whnf_cache_misses,
            k.synth_cache_hits,
            k.synth_cache_misses,
            k.equiv_ptr_eqs,
            k.equiv_cache_hits,
        ));
        let i = &self.intern;
        out.push_str(&format!(
            "syntax interning: {} hits / {} misses ({:.1}% hit rate), \
             {} con + {} kind + {} type nodes live\n",
            i.hits,
            i.misses,
            i.hit_rate() * 100.0,
            i.con_entries,
            i.kind_entries,
            i.ty_entries,
        ));
        for b in &self.bindings {
            out.push_str(&format!(
                "binding {}: {:.3} ms elaboration, {} fuel, {} mu-unrolls\n",
                b.name,
                b.elab_nanos as f64 / 1e6,
                b.kernel.fuel_used(),
                b.kernel.mu_unrolls,
            ));
        }
        if let Some(t) = &self.telemetry {
            for (name, v) in &t.counters {
                out.push_str(&format!("counter {name}: {v}\n"));
            }
        }
        if let Some(e) = &self.eval {
            out.push_str(&format!(
                "eval: {} steps, {} closures, {} backpatches, env depth {}\n",
                e.steps, e.closures, e.backpatches, e.max_env_depth,
            ));
        }
        out
    }

    fn counter(&self, name: &str) -> u64 {
        self.telemetry.as_ref().map_or(0, |t| t.counter(name))
    }

    fn phase_json(&self) -> Json {
        let nodes_in = self.counter("phase.nodes_in");
        let nodes_out =
            self.counter("phase.nodes_out_static") + self.counter("phase.nodes_out_dynamic");
        let blowup = if nodes_in == 0 {
            Json::Null
        } else {
            Json::Float(nodes_out as f64 / nodes_in as f64)
        };
        Json::obj([
            ("split_calls", Json::UInt(self.counter("phase.split_calls"))),
            (
                "verify_calls",
                Json::UInt(self.counter("phase.verify_calls")),
            ),
            ("nodes_in", Json::UInt(nodes_in)),
            (
                "nodes_out_static",
                Json::UInt(self.counter("phase.nodes_out_static")),
            ),
            (
                "nodes_out_dynamic",
                Json::UInt(self.counter("phase.nodes_out_dynamic")),
            ),
            ("blowup", blowup),
        ])
    }

    fn surface_json(&self) -> Json {
        Json::obj([
            ("topdecs", Json::UInt(self.counter("surface.topdecs"))),
            ("bindings", Json::UInt(self.bindings.len() as u64)),
        ])
    }

    fn syntax_json(&self) -> Json {
        let i = &self.intern;
        Json::obj([
            ("intern_hits", Json::UInt(i.hits)),
            ("intern_misses", Json::UInt(i.misses)),
            ("intern_hit_rate", Json::Float(i.hit_rate())),
            ("intern_sweeps", Json::UInt(i.sweeps)),
            ("con_entries", Json::UInt(i.con_entries)),
            ("kind_entries", Json::UInt(i.kind_entries)),
            ("ty_entries", Json::UInt(i.ty_entries)),
        ])
    }
}

/// The kernel counters as JSON (shared by the aggregate and per-binding
/// sections; the budget and engine name only appear on the aggregate).
fn kernel_json(k: &KernelStats, budget: Option<u64>, engine: Option<&str>) -> Json {
    let mut fields = Vec::new();
    if let Some(b) = budget {
        fields.push(("fuel_budget", Json::UInt(b)));
    }
    if let Some(e) = engine {
        fields.push(("equiv_engine", Json::str(e)));
    }
    fields.push(("fuel_used", Json::UInt(k.fuel_used())));
    fields.push((
        "fuel_by_op",
        Json::Obj(
            FuelOp::ALL
                .iter()
                .zip(k.fuel_by_op.iter())
                .map(|(&op, &c)| (op.key().to_string(), Json::UInt(c)))
                .collect(),
        ),
    ));
    fields.push(("mu_unrolls", Json::UInt(k.mu_unrolls)));
    fields.push(("whnf_steps", Json::UInt(k.whnf_steps)));
    fields.push(("assumption_inserts", Json::UInt(k.assumption_inserts)));
    fields.push(("assumption_hwm", Json::UInt(k.assumption_hwm)));
    fields.push(("singleton_shortcuts", Json::UInt(k.singleton_shortcuts)));
    fields.push(("eval_steps", Json::UInt(k.eval_steps)));
    fields.push(("quote_nodes", Json::UInt(k.quote_nodes)));
    fields.push(("env_allocs", Json::UInt(k.env_allocs)));
    fields.push(("whnf_cache_hits", Json::UInt(k.whnf_cache_hits)));
    fields.push(("whnf_cache_misses", Json::UInt(k.whnf_cache_misses)));
    fields.push(("synth_cache_hits", Json::UInt(k.synth_cache_hits)));
    fields.push(("synth_cache_misses", Json::UInt(k.synth_cache_misses)));
    fields.push(("equiv_ptr_eqs", Json::UInt(k.equiv_ptr_eqs)));
    fields.push(("equiv_cache_hits", Json::UInt(k.equiv_cache_hits)));
    Json::obj(fields)
}

fn binding_json(b: &BindingStats) -> Json {
    Json::obj([
        ("name", Json::str(&b.name)),
        ("elab_nanos", Json::UInt(b.elab_nanos)),
        ("kernel", kernel_json(&b.kernel, None, None)),
    ])
}

fn eval_json(e: &EvalStats) -> Json {
    Json::obj([
        ("steps", Json::UInt(e.steps)),
        ("closures", Json::UInt(e.closures)),
        ("backpatches", Json::UInt(e.backpatches)),
        ("max_env_depth", Json::UInt(e.max_env_depth)),
    ])
}

fn span_json(s: &Span) -> Json {
    Json::obj([
        ("name", Json::str(s.name)),
        ("start_nanos", Json::UInt(s.start_nanos)),
        ("nanos", Json::UInt(s.nanos)),
        (
            "children",
            Json::Arr(s.children.iter().map(span_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_for_a_checked_program_has_nonzero_kernel_counters() {
        let compiled = crate::compile("val x : int = 1 + 2").unwrap();
        let report = StatsReport::collect(&compiled, None, None);
        assert!(report.kernel.fuel_used() > 0);
        assert_eq!(report.bindings.len(), 1);
        assert_eq!(report.bindings[0].name, "x");
        let json = report.to_json();
        assert!(json.get("kernel").is_some());
        assert_eq!(
            json.get("eval").map(|j| matches!(j, Json::Null)),
            Some(true)
        );
    }

    #[test]
    fn caches_hit_on_the_list_showdown_program() {
        // E1's recursive List module exercises the whnf/equivalence hot
        // path enough that every cache layer must report activity.
        let program = crate::corpus::list_program(true, 4);
        let compiled = crate::compile(&program).unwrap();
        let report = StatsReport::collect(&compiled, None, None);
        assert!(report.kernel.whnf_cache_hits > 0, "whnf cache never hit");
        assert!(
            report.kernel.equiv_ptr_eqs > 0,
            "no pointer-equal equivalences"
        );
        assert!(report.intern.hits > 0, "interner never deduplicated a node");
        assert!(
            report.kernel.synth_cache_hits > 0,
            "synthesis memo never hit under the NbE engine"
        );
        let json = report.to_json();
        assert!(json.get("syntax").is_some());
        let kernel = json.get("kernel").unwrap();
        assert_eq!(
            kernel.get("equiv_engine").and_then(Json::as_str),
            Some("nbe"),
            "JSON must name the active equivalence engine"
        );
        assert!(kernel.get("synth_cache_hits").is_some());
        assert!(kernel.get("eval_steps").is_some());
        let text = report.render_text();
        assert!(text.contains("kernel caches [nbe]:"));
        assert!(text.contains("kernel engine [nbe]:"));
        assert!(text.contains("syntax interning:"));
    }

    #[test]
    fn render_text_mentions_fuel() {
        let compiled = crate::compile("val x : int = 1").unwrap();
        let report = StatsReport::collect(&compiled, None, None);
        assert!(report.render_text().contains("kernel: fuel"));
    }
}
