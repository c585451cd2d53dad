//! Benchmark harness for the Figure 8 reproduction.
//!
//! - `cargo run --release -p descend-bench --bin figure8` regenerates the
//!   paper's Figure 8 table (relative runtimes, Descend vs handwritten
//!   CUDA, four benchmarks x three footprints) and the looped-vs-unrolled
//!   Reduce ablation.
//! - `bench_sim`, `bench_compiler` and `bench_native` time the simulator,
//!   the compiler and the native path. They share the [`ratchet`]:
//!   argument parsing, min-of-N timing, and the regression gate against
//!   a committed baseline (`BENCH_SIM.json`, `BENCH_COMPILER.json`).

use descend_benchmarks::{run_benchmark, BenchKind, BenchResult};
use gpu_sim::LaunchConfig;

/// Runs one benchmark `runs` times with distinct seeds and returns the
/// median-by-cycles result (cycles are deterministic per seed; seeds only
/// vary the input data).
pub fn median_result(
    kind: BenchKind,
    param: usize,
    runs: usize,
    cfg: &LaunchConfig,
) -> BenchResult {
    assert!(runs >= 1);
    let mut results: Vec<BenchResult> = (0..runs)
        .map(|r| run_benchmark(kind, param, 0xC0FFEE + r as u64, cfg))
        .collect();
    results.sort_by_key(|r| r.descend_cycles);
    results.swap_remove(results.len() / 2)
}

/// Formats a ratio as the figure's bar value.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.3}")
}

/// `bench_sim`'s footprints: (name, interpreter-scale param, paper-scale
/// param). Each runs with races off and on, so `BENCH_SIM.json` holds
/// one entry per [`ratchet::sim_key`] of these.
pub const SIM_BENCHES: [(&str, usize, usize); 7] = [
    ("Reduce", 1 << 14, 1 << 20),
    ("ReduceShfl", 1 << 14, 1 << 20),
    ("Scan", 1 << 14, 1 << 20),
    ("Histogram", 1 << 14, 1 << 20),
    ("Stencil", 1 << 14, 1 << 20),
    ("Transpose", 128, 1024),
    ("MM", 64, 256),
];

/// The bench binaries' shared command line, timing and baseline gate.
///
/// A ratchet cannot pass vacuously: an unreadable or malformed
/// baseline, a baseline without the `entries`/`summary` the binary
/// gates on, and a run entry the baseline does not cover are each a
/// usage error (exit 2), never a skipped check.
pub mod ratchet {
    use descend_diag::json::{self, Json};
    use std::collections::HashMap;
    use std::time::Instant;

    /// Baseline timings below this are timer noise and never gate.
    const GATE_FLOOR_MS: f64 = 20.0;
    /// A gated timing fails when it exceeds its baseline by this factor.
    const REGRESSION_FACTOR: f64 = 1.25;

    /// The flags every bench binary takes.
    pub struct Args {
        /// `--reps N` (default 5): repetitions per min-of-N timing.
        pub reps: usize,
        /// `--json PATH`: where to write the results document.
        pub json: Option<String>,
        /// `--baseline PATH`: the committed document to gate against.
        pub baseline: Option<String>,
    }

    impl Args {
        /// Parses the process arguments. `extra` sees every other flag
        /// with the remaining arguments (to take a value from) and
        /// returns whether it knew the flag; unknown flags and missing
        /// values exit 2.
        pub fn parse(
            mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
        ) -> Args {
            let mut args = Args {
                reps: 5,
                json: None,
                baseline: None,
            };
            let mut it = std::env::args().skip(1);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--reps" => {
                        args.reps = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| bail("--reps needs a positive number"));
                    }
                    "--json" => args.json = Some(value(&mut it, "--json PATH")),
                    "--baseline" => args.baseline = Some(value(&mut it, "--baseline PATH")),
                    other if extra(other, &mut it) => {}
                    other => bail(&format!("unknown flag {other}")),
                }
            }
            args
        }
    }

    /// The next argument as the value of `flag`, or a usage error.
    pub fn value(it: &mut dyn Iterator<Item = String>, flag: &str) -> String {
        it.next()
            .unwrap_or_else(|| bail(&format!("missing value: {flag}")))
    }

    /// Reports a usage or baseline error and exits 2.
    pub fn bail(msg: &str) -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2)
    }

    /// The minimum of `reps` samples of `sample`.
    pub fn min_of(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
        (0..reps).map(|_| sample()).fold(f64::INFINITY, f64::min)
    }

    /// Min-of-`reps` wall-clock of `f`, in milliseconds.
    pub fn min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
        min_of(reps, || {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
    }

    /// Whether `new_ms` regressed against `old_ms`; prints the
    /// `REGRESSION:` line for `what` when it did.
    pub fn regressed(what: &str, old_ms: f64, new_ms: f64) -> bool {
        let bad = old_ms >= GATE_FLOOR_MS && new_ms > old_ms * REGRESSION_FACTOR;
        if bad {
            eprintln!("REGRESSION: {what}: {new_ms:.1}ms vs baseline {old_ms:.1}ms (>25%)");
        }
        bad
    }

    /// The `BENCH_SIM.json` entry key of one `bench_sim` measurement.
    pub fn sim_key(bench: &str, param: usize, detect_races: bool) -> String {
        format!("{bench} {param} {detect_races}")
    }

    /// Reads the committed baseline at `path` through the shared JSON
    /// parser; an unreadable file or malformed JSON is an error.
    pub fn load_baseline(path: &str) -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline: {e}"))?;
        json::parse(&text).map_err(|e| format!("malformed baseline: {e}"))
    }

    /// The number under `summary.<key>` of a baseline, or an error.
    pub fn summary(baseline: &Json, key: &str) -> Result<f64, String> {
        match baseline.get("summary").and_then(|s| s.get(key)) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("baseline has no summary.{key}")),
        }
    }

    /// `bench_sim`'s gated timings in a baseline: `warp_ms` of every
    /// entry, keyed by [`sim_key`]. Missing or empty `entries`, or an
    /// entry without those fields, is an error.
    pub fn sim_entries(baseline: &Json) -> Result<HashMap<String, f64>, String> {
        let entries = baseline.get("entries").and_then(Json::as_arr);
        let entries = entries
            .filter(|e| !e.is_empty())
            .ok_or("baseline has no entries")?;
        entries
            .iter()
            .map(|e| {
                let field = |k| e.get(k).unwrap_or(&Json::Null);
                match (
                    field("bench"),
                    field("param"),
                    field("detect_races"),
                    field("warp_ms"),
                ) {
                    (Json::Str(bench), Json::Num(param), Json::Bool(races), Json::Num(ms)) => {
                        Ok((sim_key(bench, *param as usize, *races), *ms))
                    }
                    _ => Err(format!(
                        "baseline entry {} lacks bench/param/detect_races/warp_ms",
                        e.to_string_compact()
                    )),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::ratchet::{load_baseline, sim_entries, sim_key, summary};
    use super::SIM_BENCHES;

    fn baseline(name: &str) -> Result<descend_diag::json::Json, String> {
        load_baseline(&format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR")))
    }

    #[test]
    fn committed_sim_baseline_covers_every_bench_sim_key() {
        let entries = sim_entries(&baseline("BENCH_SIM.json").unwrap()).unwrap();
        let mut keys = 0;
        for (bench, interp, paper) in SIM_BENCHES {
            for param in [interp, paper] {
                for races in [false, true] {
                    let key = sim_key(bench, param, races);
                    assert!(entries.contains_key(&key), "BENCH_SIM.json lacks {key}");
                    keys += 1;
                }
            }
        }
        assert_eq!((keys, entries.len()), (28, 28));
    }

    #[test]
    fn committed_compiler_baseline_has_the_gated_totals() {
        let compiler = baseline("BENCH_COMPILER.json").unwrap();
        for key in ["cold_ms", "warm_ms"] {
            assert!(summary(&compiler, key).unwrap() > 0.0, "{key}");
        }
        // Each document lacks what the other binary gates on.
        assert!(sim_entries(&compiler).is_err());
        assert!(summary(&baseline("BENCH_SIM.json").unwrap(), "cold_ms").is_err());
    }

    #[test]
    fn unusable_baselines_are_errors() {
        assert!(baseline("no-such-baseline.json").is_err());
        assert!(baseline("Cargo.toml").is_err());
        let empty = descend_diag::json::parse(r#"{"entries": [], "summary": {}}"#).unwrap();
        assert!(sim_entries(&empty).is_err());
        assert!(summary(&empty, "cold_ms").is_err());
    }
}
