//! `serve-faults`: one `pimflow_serve::run` of mobilenet-v2 under seeded
//! Poisson arrivals near the knee, with a seeded correlated channel fault.
//! Graphs are batched, channel masks degraded and cached plans repaired,
//! all against one shared cost cache.

use crate::compile::{device_metrics, layer_times, reference, row};
use crate::trace::Tracer;
use crate::{repeated_setup, sub_seed, timed_rounds, Args, Outcome};
use pimflow::policy::Policy;
use pimflow_json::Json;
use pimflow_serve::{
    run as serve, ArrivalSpec, FaultScenario, ServeConfig, DEFAULT_PLAN_CACHE_CAP,
};

const MODEL: &str = "mobilenet-v2";
const RPS: f64 = 1500.0;
const DURATION_S: f64 = 1.0;
const MAX_BATCH: usize = 8;
const FAULT_SEVERITY: f64 = 0.25;

/// A correlated failure: `FAULT_SEVERITY` of the channels, picked by the
/// seed, fail together at one seeded time in the first half of the window
/// and recover together 20–40% of the window later. Every seed then walks
/// the same number of distinct channel masks, so the host work of a run
/// does not depend on the seed; independently timed failures
/// (`FaultScenario::from_seed`) visit 26 to 40 plan-cache misses per run
/// depending on how the windows overlap.
fn faults(seed: u64, channels: usize) -> FaultScenario {
    let unit = |stream: u64| (sub_seed(seed, stream) >> 11) as f64 / (1u64 << 53) as f64;
    let window_us = DURATION_S * 1e6;
    let down_us = window_us * (0.10 + 0.40 * unit(0));
    let up_us = (down_us + window_us * (0.20 + 0.20 * unit(1))).min(0.90 * window_us);
    let mut pool: Vec<usize> = (0..channels).collect();
    let victims = (channels as f64 * FAULT_SEVERITY).round() as usize;
    let mut scenario = FaultScenario::none();
    for k in 0..victims as u64 {
        let channel = pool.swap_remove((sub_seed(seed, 2 + k) % pool.len() as u64) as usize);
        scenario.push(down_us, channel, false);
        scenario.push(up_us, channel, true);
    }
    scenario
}

fn config(seed: u64) -> ServeConfig {
    let channels = Policy::Pimflow.engine_config().pim_channels;
    ServeConfig {
        arrival: ArrivalSpec::Poisson { rps: RPS },
        duration_s: DURATION_S,
        seed: sub_seed(seed, 1),
        max_batch: MAX_BATCH,
        cache_capacity: DEFAULT_PLAN_CACHE_CAP,
        faults: faults(sub_seed(seed, 2), channels),
        ..ServeConfig::new(MODEL, Policy::Pimflow)
    }
}

/// One serving run, checked: every arrival completes, and the report JSON
/// is returned for comparison with the set-up pass.
fn serve_once(
    cfg: &ServeConfig,
    tr: &mut Tracer,
) -> Result<(pimflow_serve::ServeReport, String), String> {
    let run = tr
        .span("serve.run", MODEL, || serve(cfg))
        .map_err(|e| e.to_string())?;
    let report = run.report;
    let json = tr.span("json.report", MODEL, || pimflow_json::to_string(&report));
    if report.counters.completed < report.counters.arrived {
        return Err(format!(
            "{} of {} requests completed",
            report.counters.completed, report.counters.arrived
        ));
    }
    Ok((report, json))
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let (model, report, json) = repeated_setup(&mut out, tr, |tr| {
        let model = reference(MODEL, tr)?;
        let (report, json) = serve_once(&cfg, tr)?;
        let fp = format!("{:?}\n{json}", model.compiled);
        Ok(((model, report, json), fp))
    })?;

    let samples = timed_rounds(args, &mut out, tr, "serve", &[MODEL], |_, tr| {
        let (_, again) = serve_once(&cfg, tr)?;
        if again == json {
            Ok(())
        } else {
            Err("ServeReport JSON differs from the set-up pass".into())
        }
    });
    samples.report(&mut out);

    device_metrics(&mut out, &[&model]);
    layer_times(&mut out, tr);
    let c = &report.counters;
    out.set("serve.run_ms", tr.p25_sum_ms("serve.run"));
    out.set("serve.searches", c.search_invocations as f64);
    out.set("serve.repairs", c.repairs as f64);
    out.set("serve.plan_cache_hit_rate", report.cache_hit_rate);
    out.set("serve.cost_cache_misses", report.cost_cache.misses as f64);
    out.set("serve.batches", c.batches as f64);
    out.set("serve.gpu_fallback_frac", report.gpu_fallback_fraction);
    out.set("serve.p50_us", report.p50_us);
    out.set("serve.p99_us", report.p99_us);
    out.set("serve.requests", c.completed as f64);

    let lead = vec![
        ("serve_ms_p25", Json::Num(samples.model_ms(0))),
        ("requests", Json::Num(c.completed as f64)),
        ("p50_us", Json::Num(report.p50_us)),
        ("p99_us", Json::Num(report.p99_us)),
        ("batches", Json::Num(c.batches as f64)),
        ("searches", Json::Num(c.search_invocations as f64)),
        ("repairs", Json::Num(c.repairs as f64)),
        ("fault_events", Json::Num(c.fault_events as f64)),
    ];
    out.rows = vec![row(&model, lead)];
    Ok(out)
}
