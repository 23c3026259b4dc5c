//! In-memory spans recorded around the benchmark's calls into each layer,
//! plus the order statistics every metric is built from.

use pimflow_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a layer call (or a whole timed operation) for one
/// model, with the index of the span that contains it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub model: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. When off, `span` only runs the closure, so untraced runs
/// pay one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, model: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            model: model.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end matches a begin");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, model: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name, model);
        let out = f();
        self.end();
        out
    }

    /// Per-model lower quartile of the durations of spans named `name`,
    /// summed over models; 0 when the layer did no work.
    pub fn p25_sum_ms(&self, name: &str) -> f64 {
        let mut by_model: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_model.entry(&s.model).or_default().push(s.ms());
        }
        by_model.values().map(|v| p25(v)).sum()
    }

    /// Smallest share, in percent, of a span named `root` that its direct
    /// children cover, over every such span.
    pub fn min_coverage_pct(&self, root: &str) -> f64 {
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| {
                let c = covered.get(&i).copied().unwrap_or(0);
                100.0 * c as f64 / (s.end_ns - s.start_ns).max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.into())),
                        ("model", Json::Str(s.model.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Quantile `q` of `v` with linear interpolation between order statistics.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Lower quartile: the estimator for every wall-clock metric, because
/// interference on this kind of host only ever slows a sample down.
pub fn p25(v: &[f64]) -> f64 {
    quantile(v, 0.25)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
