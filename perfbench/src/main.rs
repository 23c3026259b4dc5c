//! End-to-end benchmark of the PIMFlow workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-cnn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload runs in one process at worker-pool width 1: a set-up pass
//! (graph construction plus an untimed reference pass, repeated), then
//! round-robin timed operations until `--seconds` have passed, checking
//! every output against the reference. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). Per-model rows and, when
//! traced, every span go to `perfbench/out/`. See `perfbench/README.md`.

mod compile;
mod probe;
mod serve;
mod trace;
mod verify;

use pimflow_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{median, p25, Tracer};

/// End-to-end metrics, every one reported by every workload with tracing
/// off: `(name, unit)`. Keep in step with `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("host_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("speedup_vs_gpu", "x"),
    ("energy_vs_gpu", "x"),
    ("pred_error_factor_max", "x"),
];

/// Per-layer metrics, reported with tracing on. A layer a workload does
/// not call reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("ir.build_ms", "ms"),
    ("search.ms", "ms"),
    ("search.pim_sims", "count"),
    ("search.cache_hit_rate", "ratio"),
    ("search.predicted_us", "us"),
    ("search.pred_error_pct_max", "%"),
    ("passes.apply_ms", "ms"),
    ("passes.nodes_out", "count"),
    ("engine.execute_ms", "ms"),
    ("engine.total_us", "us"),
    ("engine.host_pim_bytes", "B"),
    ("engine.overlap_hidden_us", "us"),
    ("engine.energy_uj", "uJ"),
    ("json.roundtrip_ms", "ms"),
    ("json.plan_bytes", "B"),
    ("kernels.original_ms", "ms"),
    ("kernels.transformed_ms", "ms"),
    ("kernels.arena_reuse_frac", "ratio"),
    ("kernels.param_cache_hit_frac", "ratio"),
    ("kernels.peak_live_mb", "MB"),
    ("serve.run_ms", "ms"),
    ("serve.searches", "count"),
    ("serve.repairs", "count"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.cost_cache_misses", "count"),
    ("serve.batches", "count"),
    ("serve.gpu_fallback_frac", "ratio"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.requests", "count"),
    ("trace.coverage_min_pct", "%"),
    ("trace.overhead_ratio", "x"),
    ("timed.rounds", "count"),
    ("timed.wall_ms", "ms"),
    ("setup.wall_s", "s"),
];

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed rounds run even when `--seconds` is already used up.
const MIN_ROUNDS: usize = 3;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A derived seed, so the arrival, fault and input streams of one
/// workload seed are independent of each other.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload hands back to the harness.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// One detail row per model (no gate).
    pub rows: Vec<Json>,
    /// Every untraced timed sample, per model.
    pub samples: Vec<(String, Vec<Sample>)>,
}

impl Outcome {
    /// Counts one checked operation; an `Err` is a failed one.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs the set-up pass [`SETUP_REPEATS`] times inside `setup` spans,
/// records `setup_s` (median set-up time at the reference host speed) and
/// `setup.wall_s` (median raw wall time), and returns the last pass's
/// reference. Each pass also returns a fingerprint of its reference
/// artifacts; a pass that disagrees with the first counts as a failed
/// operation.
pub fn repeated_setup<R>(
    out: &mut Outcome,
    tr: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<(R, String), String>,
) -> Result<R, String> {
    let mut secs = Vec::new();
    let mut wall = Vec::new();
    let mut first: Option<String> = None;
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let before = probe::time_ms();
        let t = Instant::now();
        tr.begin("setup", "");
        let (reference, fingerprint) = pass(tr)?;
        tr.end();
        let s = t.elapsed().as_secs_f64();
        wall.push(s);
        secs.push(probe::scaled(s, before, probe::time_ms()));
        match &first {
            None => first = Some(fingerprint),
            Some(f) => out.check(
                "set-up determinism",
                if *f == fingerprint {
                    Ok(())
                } else {
                    Err("set-up passes produced different references".into())
                },
            ),
        }
        last = Some(reference);
    }
    out.set("setup_s", median(&secs));
    out.set("setup.wall_s", median(&wall));
    Ok(last.expect("at least one set-up pass"))
}

/// One timed operation: its wall time and the same time rescaled to the
/// reference host speed by the probes around it, both in ms.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_ms: f64,
    pub scaled_ms: f64,
}

/// Per-model samples of the timed operations.
#[derive(Debug)]
pub struct Samples {
    pub models: Vec<String>,
    pub untraced: Vec<Vec<Sample>>,
    pub traced: Vec<Vec<Sample>>,
    pub rounds: usize,
}

/// Per-model lower quartile of `f` over `samples`, summed over models.
fn p25_sum(samples: &[Vec<Sample>], f: fn(&Sample) -> f64) -> f64 {
    samples
        .iter()
        .map(|s| p25(&s.iter().map(f).collect::<Vec<_>>()))
        .sum()
}

impl Samples {
    /// The `host_ms` estimator: per-model lower quartile of the untraced
    /// samples at the reference host speed, summed over models.
    pub fn host_ms(&self) -> f64 {
        p25_sum(&self.untraced, |s| s.scaled_ms)
    }

    /// One model's lower-quartile untraced sample at the reference speed.
    pub fn model_ms(&self, m: usize) -> f64 {
        p25(&self.untraced[m]
            .iter()
            .map(|s| s.scaled_ms)
            .collect::<Vec<_>>())
    }

    /// Records the harness-level metrics of the timed loop. Call it right
    /// after the loop: peak memory is read before any untimed check that
    /// widens the worker pool (threads bring their own allocator arenas).
    pub fn report(&self, out: &mut Outcome) {
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("host_ms", self.host_ms());
        out.set("timed.wall_ms", p25_sum(&self.untraced, |s| s.wall_ms));
        out.set("timed.rounds", self.rounds as f64);
        out.samples = self
            .models
            .iter()
            .cloned()
            .zip(self.untraced.clone())
            .collect();
        if self.traced.iter().all(|s| !s.is_empty()) {
            // Traced over untraced time of the same operations.
            let traced = p25_sum(&self.traced, |s| s.scaled_ms);
            out.set("trace.overhead_ratio", traced / self.host_ms());
        }
    }
}

/// Round-robin timed loop. Each round runs `op` once per model, starting
/// at a seed-rotated model, until `seconds` have passed. Every call is a
/// checked operation inside an `op` span. In a traced run odd rounds
/// run with the tracer off, so the same process also measures the
/// untraced time and with it the tracing overhead.
pub fn timed_rounds(
    args: &Args,
    out: &mut Outcome,
    tr: &mut Tracer,
    op_name: &'static str,
    models: &[&str],
    mut op: impl FnMut(usize, &mut Tracer) -> Result<(), String>,
) -> Samples {
    let n = models.len();
    let rotate = (args.seed % n as u64) as usize;
    let mut samples = Samples {
        models: models.iter().map(|m| m.to_string()).collect(),
        untraced: vec![Vec::new(); n],
        traced: vec![Vec::new(); n],
        rounds: 0,
    };
    let start = Instant::now();
    let mut before = probe::time_ms();
    while samples.rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && samples.rounds.is_multiple_of(2);
        tr.on = traced;
        for k in 0..n {
            let m = (k + rotate) % n;
            let t = Instant::now();
            tr.begin("op", models[m]);
            let result = op(m, tr);
            tr.end();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let after = probe::time_ms();
            let sample = Sample {
                wall_ms,
                scaled_ms: probe::scaled(wall_ms, before, after),
            };
            before = after;
            if traced {
                samples.traced[m].push(sample);
            } else {
                samples.untraced[m].push(sample);
            }
            out.check(&format!("{op_name} {}", models[m]), result);
        }
        samples.rounds += 1;
    }
    tr.on = args.trace;
    samples
}

/// Raw and scaled samples per model, for the detail file.
fn samples_json(samples: &[(String, Vec<Sample>)]) -> Json {
    let arr = |v: &[Sample], f: fn(&Sample) -> f64| {
        Json::Arr(v.iter().map(|s| Json::Num(f(s))).collect())
    };
    Json::Obj(
        samples
            .iter()
            .map(|(m, v)| {
                let fields = vec![
                    ("wall_ms", arr(v, |s| s.wall_ms)),
                    ("scaled_ms", arr(v, |s| s.scaled_ms)),
                ];
                (m.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metric_obj(out: &Outcome, table: &[(&str, &str)], default_zero: bool) -> Result<Json, String> {
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if default_zero => 0.0,
            None => return Err(format!("workload did not report `{name}`")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        fields.push((
            name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    Ok(Json::obj(fields))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // The program sees only the inputs the benchmark generates: no ambient
    // PIMFLOW_* setting, and one worker everywhere unless a call pins its
    // own width.
    for (key, _) in std::env::vars() {
        if key.starts_with("PIMFLOW_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("PIMFLOW_JOBS", "1");

    let mut tr = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "compile-cnn" => compile::run(&args, &mut tr)?,
        "serve-faults" => serve::run(&args, &mut tr)?,
        "verify-numerics" => verify::run(&args, &mut tr)?,
        w => return Err(format!("unknown workload `{w}`")),
    };
    out.set("trace.coverage_min_pct", tr.min_coverage_pct("op"));

    let metrics = if args.trace {
        metric_obj(&out, &PER_LAYER, true)?
    } else {
        metric_obj(&out, &END_TO_END, false)?
    };

    for row in &out.rows {
        println!("{}", row.to_string_compact());
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let detail = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("rows", Json::Arr(out.rows.clone())),
        ("samples", samples_json(&out.samples)),
        ("metrics", metrics.clone()),
        ("spans", tr.to_json()),
    ]);
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::write(&file, detail.to_string_pretty()).map_err(|e| e.to_string())?;

    let result = Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
