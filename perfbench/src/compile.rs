//! `compile-cnn`: cold compiles of the paper's Fig. 9 CNNs plus
//! EfficientNet-B6 (the end point of Fig. 16). Also the compile pipeline
//! and device-quality metrics the other workloads reuse in their set-up.

use crate::trace::{geomean, Tracer};
use crate::{repeated_setup, timed_rounds, Args, Outcome};
use pimflow::costcache::CostCache;
use pimflow::engine::{execute, EngineConfig};
use pimflow::policy::Policy;
use pimflow::search::{apply_plan, ExecutionPlan, Search};
use pimflow_ir::{models, Graph};
use pimflow_json::Json;

/// Dense, depthwise and residual graphs of 37 to 534 nodes.
const MODELS: [&str; 6] = [
    "efficientnet-v1-b0",
    "mnasnet-1.0",
    "mobilenet-v2",
    "resnet-50",
    "vgg-16",
    "efficientnet-v1-b6",
];

/// Everything one compile produces that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    pub plan_json: String,
    pub predicted_us: f64,
    pub total_us: f64,
    pub energy_uj: f64,
    pub host_pim_bytes: u64,
    pub overlap_hidden_us: f64,
    pub cache_hits: u64,
    pub pim_sims: u64,
    pub nodes_out: usize,
}

/// A model with its reference compile and GPU-only execution.
#[derive(Debug)]
pub struct ModelRef {
    pub name: &'static str,
    pub graph: Graph,
    pub transformed: Graph,
    pub compiled: Compiled,
    pub gpu_total_us: f64,
    pub gpu_energy_uj: f64,
}

/// Builds a zoo model inside an `ir.build` span.
pub fn build(name: &'static str, tr: &mut Tracer) -> Result<Graph, String> {
    tr.span("ir.build", name, || models::by_name(name))
        .ok_or_else(|| format!("unknown model {name}"))
}

/// One cold compile under the default PIMFlow policy: `Search::run` with a
/// fresh `CostCache` on `jobs` workers, `apply_plan`, `validate`,
/// `execute`, and a plan JSON round trip that must be byte-identical.
pub fn compile(
    name: &str,
    g: &Graph,
    jobs: usize,
    tr: &mut Tracer,
) -> Result<(Compiled, Graph), String> {
    let cfg = Policy::Pimflow.engine_config();
    let opts = Policy::Pimflow.search_options().unwrap_or_default();
    let cache = CostCache::new();
    let plan = tr
        .span("search.run", name, || {
            Search::new(g, &cfg)
                .options(opts)
                .pool(jobs)
                .cache(&cache)
                .run()
        })
        .map_err(|e| format!("search: {e}"))?;
    let transformed = tr
        .span("passes.apply", name, || apply_plan(g, &plan))
        .map_err(|e| format!("apply_plan: {e}"))?;
    tr.span("ir.validate", name, || transformed.validate())
        .map_err(|e| format!("transformed graph invalid: {e}"))?;
    let report = tr
        .span("engine.execute", name, || execute(&transformed, &cfg))
        .map_err(|e| format!("execute: {e}"))?;
    let plan_json = tr.span("json.roundtrip", name, || {
        let text = pimflow_json::to_string(&plan);
        let back: ExecutionPlan =
            pimflow_json::from_str(&text).map_err(|e| format!("plan JSON: {e}"))?;
        if pimflow_json::to_string(&back) == text {
            Ok(text)
        } else {
            Err("plan JSON does not round-trip byte-identically".to_string())
        }
    })?;
    let counters = cache.counters();
    let compiled = Compiled {
        plan_json,
        predicted_us: plan.predicted_us,
        total_us: report.total_us,
        energy_uj: report.energy_uj,
        host_pim_bytes: report.transfer_bytes + report.host_to_pim_bytes,
        overlap_hidden_us: report
            .fused_groups
            .iter()
            .map(|f| f.overlap_hidden_us)
            .sum(),
        cache_hits: counters.hits,
        pim_sims: counters.misses,
        nodes_out: transformed.node_count(),
    };
    Ok((compiled, transformed))
}

/// Builds, compiles and runs GPU-only one model: its set-up reference.
pub fn reference(name: &'static str, tr: &mut Tracer) -> Result<ModelRef, String> {
    let graph = build(name, tr)?;
    let (compiled, transformed) = compile(name, &graph, 1, tr)?;
    let gpu = tr
        .span("engine.baseline", name, || {
            execute(&graph, &EngineConfig::baseline_gpu())
        })
        .map_err(|e| format!("GPU-only execute: {e}"))?;
    Ok(ModelRef {
        name,
        graph,
        transformed,
        compiled,
        gpu_total_us: gpu.total_us,
        gpu_energy_uj: gpu.energy_uj,
    })
}

/// Stable text of the reference artifacts, compared across set-up passes.
pub fn fingerprint(refs: &[ModelRef]) -> String {
    refs.iter()
        .map(|r| format!("{:?} {} {}", r.compiled, r.gpu_total_us, r.gpu_energy_uj))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Device-quality metrics of the compiled models (deterministic) and the
/// per-layer counts of one reference compile per model.
pub fn device_metrics(out: &mut Outcome, refs: &[&ModelRef]) {
    let c = |f: fn(&Compiled) -> f64| refs.iter().map(|r| f(&r.compiled)).sum::<f64>();
    let speedups: Vec<f64> = refs
        .iter()
        .map(|r| r.gpu_total_us / r.compiled.total_us)
        .collect();
    let energies: Vec<f64> = refs
        .iter()
        .map(|r| r.compiled.energy_uj / r.gpu_energy_uj)
        .collect();
    let factor = |r: &&ModelRef| {
        let (p, e) = (r.compiled.predicted_us, r.compiled.total_us);
        p.max(e) / p.min(e)
    };
    let pct = |r: &&ModelRef| {
        100.0 * (r.compiled.predicted_us - r.compiled.total_us).abs() / r.compiled.total_us
    };
    out.set("speedup_vs_gpu", geomean(&speedups));
    out.set("energy_vs_gpu", geomean(&energies));
    out.set(
        "pred_error_factor_max",
        refs.iter().map(factor).fold(1.0, f64::max),
    );
    out.set(
        "search.pred_error_pct_max",
        refs.iter().map(pct).fold(0.0, f64::max),
    );
    out.set("search.pim_sims", c(|x| x.pim_sims as f64));
    let hits = c(|x| x.cache_hits as f64);
    out.set(
        "search.cache_hit_rate",
        hits / (hits + c(|x| x.pim_sims as f64)),
    );
    out.set("search.predicted_us", c(|x| x.predicted_us));
    out.set("passes.nodes_out", c(|x| x.nodes_out as f64));
    out.set("engine.total_us", c(|x| x.total_us));
    out.set("engine.host_pim_bytes", c(|x| x.host_pim_bytes as f64));
    out.set("engine.overlap_hidden_us", c(|x| x.overlap_hidden_us));
    out.set("engine.energy_uj", c(|x| x.energy_uj));
    out.set("json.plan_bytes", c(|x| x.plan_json.len() as f64));
}

/// Per-layer span times of the compile pipeline.
pub fn layer_times(out: &mut Outcome, tr: &Tracer) {
    out.set("ir.build_ms", tr.p25_sum_ms("ir.build"));
    out.set("search.ms", tr.p25_sum_ms("search.run"));
    out.set("passes.apply_ms", tr.p25_sum_ms("passes.apply"));
    out.set("engine.execute_ms", tr.p25_sum_ms("engine.execute"));
    out.set("json.roundtrip_ms", tr.p25_sum_ms("json.roundtrip"));
}

/// The detail row of one compiled model, led by the workload's own
/// fields.
pub fn row(r: &ModelRef, lead: Vec<(&str, Json)>) -> Json {
    let c = &r.compiled;
    let mut fields = vec![("model", Json::Str(r.name.into()))];
    fields.extend(lead);
    fields.extend([
        ("predicted_us", Json::Num(c.predicted_us)),
        ("executed_us", Json::Num(c.total_us)),
        ("gpu_us", Json::Num(r.gpu_total_us)),
        ("speedup_vs_gpu", Json::Num(r.gpu_total_us / c.total_us)),
        ("energy_vs_gpu", Json::Num(c.energy_uj / r.gpu_energy_uj)),
        ("host_pim_bytes", Json::Num(c.host_pim_bytes as f64)),
        ("pim_sims", Json::Num(c.pim_sims as f64)),
        ("nodes_in", Json::Num(r.graph.node_count() as f64)),
        ("nodes_out", Json::Num(c.nodes_out as f64)),
    ]);
    Json::obj(fields)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let refs = repeated_setup(&mut out, tr, |tr| {
        let refs = MODELS
            .iter()
            .map(|&m| reference(m, tr))
            .collect::<Result<Vec<_>, _>>()?;
        let fp = fingerprint(&refs);
        Ok((refs, fp))
    })?;

    let samples = timed_rounds(args, &mut out, tr, "compile", &MODELS, |m, tr| {
        let r = &refs[m];
        let (c, _) = compile(r.name, &r.graph, 1, tr)?;
        if c == r.compiled {
            Ok(())
        } else if c.plan_json != r.compiled.plan_json {
            Err("plan JSON differs from the set-up pass".into())
        } else {
            Err("compile result differs from the set-up pass".into())
        }
    });
    samples.report(&mut out);

    // Untimed: plans must be byte-identical at any worker-pool width.
    for r in &refs {
        let width2 = compile(r.name, &r.graph, 2, &mut Tracer::new(false));
        out.check(
            &format!("width-2 plan {}", r.name),
            match width2 {
                Ok((c, _)) if c.plan_json == r.compiled.plan_json => Ok(()),
                Ok(_) => Err("plan JSON at pool width 2 differs from width 1".into()),
                Err(e) => Err(e),
            },
        );
    }

    device_metrics(&mut out, &refs.iter().collect::<Vec<_>>());
    layer_times(&mut out, tr);
    out.rows = refs
        .iter()
        .enumerate()
        .map(|(m, r)| row(r, vec![("compile_ms_p25", Json::Num(samples.model_ms(m)))]))
        .collect();
    Ok(out)
}
