//! Workspace-local, offline stand-in for the `criterion` benchmark
//! harness.
//!
//! The build environment has no crates.io access, so this shim
//! provides the API slice the workspace's benches use: [`Criterion`]
//! with `bench_function` / `benchmark_group`, [`BenchmarkGroup`] with
//! `sample_size` / `bench_function` / `bench_with_input` / `finish`,
//! [`BenchmarkId`], [`Bencher::iter`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is intentionally simple: each benchmark is warmed up,
//! then timed in batches until a short measurement window is spent and
//! at least [`MIN_SAMPLES`] batches (samples) were taken, whatever the
//! window; median-of-batches nanoseconds per iteration are printed to
//! stdout with the fastest and slowest batch. No plots, no statistics
//! files — just honest wall-clock numbers suitable for before/after
//! comparisons.
//!
//! # Smoke mode
//!
//! `cargo bench -- --smoke` (or `BENCH_SMOKE=1 cargo bench`) shrinks
//! the warmup and measurement windows to a few milliseconds so every
//! benchmark still compiles and **executes at least once** while the
//! whole suite finishes in seconds, and drops the sample floor to one
//! sample. CI runs this on every push: the numbers are meaningless,
//! but a bench that panics, hangs, or no longer builds fails the
//! pipeline instead of rotting silently.
//!
//! # Machine-readable reports
//!
//! When the `BENCH_JSON_DIR` environment variable names a directory,
//! each bench binary additionally writes
//! `BENCH_<bench-name>.json` there on exit — a flat list of
//! `{name, ns_per_iter, iters, min_ns, max_ns, samples}` records:
//! median, fastest and slowest batch in nanoseconds per iteration
//! (exactly what the console lines print), iterations timed, and the
//! number of batches the three figures come from. CI uploads the
//! directory as an artifact on every push, so the perf trajectory
//! accumulates per commit instead of living only in scrollback.

#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] (real criterion offers its
/// own; some benches import it from here).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// The fewest timed batches a real-mode benchmark reports: sampling
/// continues past the measurement window until this many were taken,
/// so a millisecond-scale row is never the median of one or two.
pub const MIN_SAMPLES: usize = 10;

/// The most timed batches one benchmark takes.
const MAX_SAMPLES: usize = 64;

/// Top-level benchmark driver.
pub struct Criterion {
    warmup: Duration,
    measurement: Duration,
    min_samples: usize,
}

/// `true` when the process was asked for a smoke pass: `--smoke` on
/// the command line (`cargo bench -- --smoke`) or a non-`0`
/// `BENCH_SMOKE` environment variable.
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var_os("BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

impl Default for Criterion {
    fn default() -> Self {
        if smoke_mode() {
            // Just enough to execute every benchmark body at least
            // once (`Bencher::iter` always takes one sample).
            Criterion {
                warmup: Duration::from_millis(2),
                measurement: Duration::from_millis(8),
                min_samples: 1,
            }
        } else {
            Criterion {
                warmup: Duration::from_millis(80),
                measurement: Duration::from_millis(320),
                min_samples: MIN_SAMPLES,
            }
        }
    }
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.warmup, self.measurement, self.min_samples);
        f(&mut b);
        b.report(name);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            sample_scale: 1.0,
        }
    }
}

/// A named benchmark group (shim for criterion's `BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_scale: f64,
}

impl BenchmarkGroup<'_> {
    /// Scale the warmup and measurement windows (relative to
    /// criterion's default sample size of 100). The sample floor
    /// ([`MIN_SAMPLES`] in real mode) holds whatever the window.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_scale = (n as f64 / 100.0).clamp(0.05, 4.0);
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(
            self.criterion.warmup.mul_f64(self.sample_scale),
            self.criterion.measurement.mul_f64(self.sample_scale),
            self.criterion.min_samples,
        );
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id.label));
        self
    }

    /// Run one parameterized benchmark inside the group.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Close the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// A benchmark identifier: function name plus optional parameter.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Identifier combining a function name and a parameter value.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    warmup: Duration,
    measurement: Duration,
    min_samples: usize,
    measured: Option<Measurement>,
}

/// One benchmark's result: batch statistics in nanoseconds per
/// iteration.
#[derive(Debug, Clone, Copy)]
struct Measurement {
    /// Median batch.
    median_ns: f64,
    /// Fastest batch.
    min_ns: f64,
    /// Slowest batch.
    max_ns: f64,
    /// Iterations timed across all batches.
    iters: u64,
    /// Batches timed.
    samples: usize,
}

impl Bencher {
    fn new(warmup: Duration, measurement: Duration, min_samples: usize) -> Self {
        Bencher {
            warmup,
            measurement,
            min_samples,
            measured: None,
        }
    }

    /// Measure `f`, retaining nanoseconds per iteration.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warmup while estimating per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            std_black_box(f());
            warm_iters += 1;
        }
        let est = warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;

        // Time batches until the measurement window is spent and the
        // sample floor is met; keep the median batch to damp scheduler
        // noise.
        let batch = ((self.measurement.as_nanos() as f64 / 8.0 / est.max(1.0)) as u64).max(1);
        let mut samples = Vec::new();
        let meas_start = Instant::now();
        let mut total_iters = 0u64;
        while (meas_start.elapsed() < self.measurement || samples.len() < self.min_samples)
            && samples.len() < MAX_SAMPLES
        {
            let t0 = Instant::now();
            for _ in 0..batch {
                std_black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
            total_iters += batch;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        self.measured = Some(Measurement {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
            iters: total_iters,
            samples: samples.len(),
        });
    }

    fn report(&self, name: &str) {
        match self.measured {
            Some(m) => {
                let ns = m.median_ns;
                let (scale, unit) = if ns >= 1e9 {
                    (1e9, "s")
                } else if ns >= 1e6 {
                    (1e6, "ms")
                } else if ns >= 1e3 {
                    (1e3, "µs")
                } else {
                    (1.0, "ns")
                };
                println!(
                    "{name:<48} time: {:>10.3} {unit}/iter [{:.3} .. {:.3}] ({} iters, {} samples)",
                    ns / scale,
                    m.min_ns / scale,
                    m.max_ns / scale,
                    m.iters,
                    m.samples
                );
                record_result(name, m);
            }
            None => println!("{name:<48} (no measurement taken)"),
        }
    }
}

/// The per-process result registry feeding the JSON report.
fn results() -> &'static Mutex<Vec<(String, Measurement)>> {
    static RESULTS: OnceLock<Mutex<Vec<(String, Measurement)>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn record_result(name: &str, measurement: Measurement) {
    results()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push((name.to_owned(), measurement));
}

/// The bench binary's logical name: the executable file stem with
/// cargo's trailing `-<16-hex-digit>` metadata hash stripped (e.g.
/// `target/release/deps/pipeline-0a1b2c3d4e5f6071` → `pipeline`).
fn bench_binary_name() -> String {
    let stem = std::env::args()
        .next()
        .and_then(|arg0| {
            std::path::Path::new(&arg0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_owned());
    match stem.rsplit_once('-') {
        Some((head, tail)) if tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head.to_owned()
        }
        _ => stem,
    }
}

/// Minimal JSON string escaping (benchmark names are plain ASCII in
/// practice, but quotes and backslashes must never corrupt the file).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write `BENCH_<bench-name>.json` under `$BENCH_JSON_DIR`, if the
/// variable is set (see the [module docs](self)). Called by
/// [`criterion_main!`] after every group has run; a no-op without the
/// variable, and IO failures print a warning instead of failing the
/// bench (the measurements already reached stdout).
pub fn write_json_report() {
    let Some(dir) = std::env::var_os("BENCH_JSON_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let name = bench_binary_name();
    let results = results()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&name)));
    body.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
    body.push_str("  \"results\": [\n");
    for (i, (bench, m)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.3}, \"iters\": {}, \"min_ns\": {:.3}, \"max_ns\": {:.3}, \"samples\": {}}}{comma}\n",
            json_escape(bench),
            m.median_ns,
            m.iters,
            m.min_ns,
            m.max_ns,
            m.samples
        ));
    }
    body.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
    match write {
        Ok(()) => println!("bench report written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Collect benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups, then writing the optional
/// JSON report (see [`write_json_report`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes `--bench`; any other explicit filter
            // argument is unsupported and ignored.
            $($group();)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Time a ~1 ms body under a window far shorter than one call.
    fn measure(min_samples: usize) -> Measurement {
        let mut b = Bencher::new(Duration::ZERO, Duration::from_micros(1), min_samples);
        b.iter(|| std::thread::sleep(Duration::from_millis(1)));
        b.measured.expect("iter always measures")
    }

    #[test]
    fn real_mode_samples_at_least_the_floor_whatever_the_window() {
        let m = measure(MIN_SAMPLES);
        assert_eq!(m.samples, MIN_SAMPLES);
        assert_eq!(m.iters, MIN_SAMPLES as u64, "one iteration per batch");
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.min_ns >= 1e6, "each batch slept 1 ms: {m:?}");
    }

    #[test]
    fn smoke_floor_takes_a_single_sample() {
        let m = measure(1);
        assert_eq!(m.samples, 1);
        assert_eq!(m.min_ns, m.max_ns);
        assert_eq!(m.median_ns, m.min_ns);
    }
}
