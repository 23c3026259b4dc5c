//! `verify-numerics`: `verify_equivalence` of original against transformed
//! graphs on the reference executor. The transformed graphs are compiled in
//! set-up, so every timed call is kernel work in `pimflow-kernels`.

use crate::compile::{device_metrics, layer_times, reference, row, ModelRef};
use crate::trace::Tracer;
use crate::{repeated_setup, sub_seed, timed_rounds, Args, Outcome};
use pimflow::evaluation::verify_equivalence;
use pimflow_json::Json;
use pimflow_kernels::{input_tensors, run_graph_with, ExecOptions, ExecStats};

/// Small enough to execute numerically, with depthwise, fire, residual and
/// encoder-decoder structure.
const MODELS: [&str; 5] = [
    "toy",
    "mobilenet-v2",
    "squeezenet-1.1",
    "resnet-18",
    "unet-small",
];

/// The tolerance `tests/equivalence.rs` applies to CNN flows.
const TOL: f32 = 1e-4;

/// One model's reference verification.
#[derive(Debug)]
struct Verified {
    model: ModelRef,
    max_abs_diff: f32,
    original: ExecStats,
    transformed: ExecStats,
}

/// The traced form of `verify_equivalence`: the same calls, each in its
/// own span, returning the largest output difference.
fn traced_verify(v: &Verified, seed: u64, tr: &mut Tracer) -> Result<f32, String> {
    let name = v.model.name;
    let opts = ExecOptions {
        jobs: Some(1),
        ..ExecOptions::default()
    };
    let inputs = tr.span("kernels.inputs", name, || {
        input_tensors(&v.model.graph, seed)
    });
    let a = tr
        .span("kernels.original", name, || {
            run_graph_with(&v.model.graph, &inputs, &opts)
        })
        .map_err(|e| e.to_string())?;
    let b = tr
        .span("kernels.transformed", name, || {
            run_graph_with(&v.model.transformed, &inputs, &opts)
        })
        .map_err(|e| e.to_string())?;
    tr.span("kernels.compare", name, || {
        if a.outputs.len() != b.outputs.len()
            || a.outputs
                .iter()
                .zip(&b.outputs)
                .any(|(x, y)| x.shape() != y.shape())
        {
            return Err("outputs differ in arity or shape".to_string());
        }
        Ok(a.outputs
            .iter()
            .zip(&b.outputs)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0f32, f32::max))
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let seed = sub_seed(args.seed, 3);
    let mut out = Outcome::default();
    let refs = repeated_setup(&mut out, tr, |tr| {
        let mut refs = Vec::new();
        for &m in &MODELS {
            let model = reference(m, tr)?;
            let report = tr
                .span("kernels.verify", m, || {
                    verify_equivalence(&model.graph, &model.transformed, seed, Some(1))
                })
                .map_err(|e| format!("{m}: {e}"))?;
            refs.push(Verified {
                model,
                max_abs_diff: report.max_abs_diff,
                original: report.original_stats,
                transformed: report.transformed_stats,
            });
        }
        let fp = refs
            .iter()
            .map(|v| format!("{:?} {}", v.model.compiled, v.max_abs_diff))
            .collect::<Vec<_>>()
            .join("\n");
        Ok((refs, fp))
    })?;

    let names: Vec<&str> = refs.iter().map(|v| v.model.name).collect();
    let samples = timed_rounds(args, &mut out, tr, "verify", &names, |m, tr| {
        let v = &refs[m];
        let diff = if tr.on {
            traced_verify(v, seed, tr)?
        } else {
            verify_equivalence(&v.model.graph, &v.model.transformed, seed, Some(1))
                .map_err(|e| e.to_string())?
                .max_abs_diff
        };
        if diff > TOL {
            Err(format!("outputs differ by {diff}, beyond {TOL}"))
        } else if diff.to_bits() != v.max_abs_diff.to_bits() {
            Err(format!(
                "difference {diff} is not the set-up pass's {}",
                v.max_abs_diff
            ))
        } else {
            Ok(())
        }
    });
    samples.report(&mut out);

    device_metrics(&mut out, &refs.iter().map(|v| &v.model).collect::<Vec<_>>());
    layer_times(&mut out, tr);
    out.set("kernels.original_ms", tr.p25_sum_ms("kernels.original"));
    out.set(
        "kernels.transformed_ms",
        tr.p25_sum_ms("kernels.transformed"),
    );
    let stats: Vec<&ExecStats> = refs
        .iter()
        .flat_map(|v| [&v.original, &v.transformed])
        .collect();
    let sum = |f: fn(&ExecStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>();
    let reuses = sum(|s| s.arena_reuses as f64);
    out.set(
        "kernels.arena_reuse_frac",
        reuses / (reuses + sum(|s| s.arena_allocs as f64)),
    );
    let hits = sum(|s| s.param_cache_hits as f64);
    out.set(
        "kernels.param_cache_hit_frac",
        hits / (hits + sum(|s| s.param_cache_misses as f64)),
    );
    let peak = stats.iter().map(|s| s.peak_live_bytes).max().unwrap_or(0);
    out.set("kernels.peak_live_mb", peak as f64 / (1 << 20) as f64);

    out.rows = refs
        .iter()
        .enumerate()
        .map(|(m, v)| {
            let lead = vec![
                ("verify_ms_p25", Json::Num(samples.model_ms(m))),
                ("max_abs_diff", Json::Num(v.max_abs_diff as f64)),
            ];
            row(&v.model, lead)
        })
        .collect();
    Ok(out)
}
