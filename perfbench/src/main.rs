//! One benchmark for the Descend compiler, its compile service and
//! paper-scale execution; see `README.md` for the workloads and metrics.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <compile_cold|serve_edit|fig8_exec> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced window, and the spans are written next
//! to the executable as `perfbench-spans-<workload>.jsonl`.

mod compile_cold;
mod fig8_exec;
mod serve_edit;
mod trace;

use descend_benchmarks::{BenchKind, ALL_BENCHMARKS};
use descend_compiler::server::Json;
use descend_compiler::QueryStats;
use rand::rngs::StdRng;
use rand::Rng as _;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <compile_cold|serve_edit|fig8_exec> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per measuring run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The measured window is cut into as many slices as fit with each at
/// least `SLICE_MIN_S` long and `SLICE_PER_SETUP` times the first
/// set-up, and the workload is set up afresh before each slice. The
/// machine's speed changes in phases of one to five seconds, so set-ups
/// spread over the run sample the same mix of phases as the operations.
/// Only `compile_cold`, whose set-up takes about 50 ms, gets more than one
/// slice; the others set up `SETUP_REPS` times before one slice.
const SLICE_MIN_S: f64 = 1.0;
const SLICE_PER_SETUP: f64 = 8.0;

/// Failed checks and the number made.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn pass(&mut self) {
        self.check(true, String::new);
    }

    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    /// Latency of each operation, in seconds.
    pub latencies: Vec<f64>,
    /// Source bytes the window's operations read.
    pub bytes: u64,
    pub checks: Checks,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.latencies.extend(other.latencies);
        self.bytes += other.bytes;
        self.checks.merge(other.checks);
    }
}

/// Every per-layer metric with its unit. Each workload sets the layers
/// it drives; the rest stay 0 because that workload bypasses them.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    add("parser.parse_s".into(), "s");
    add("parser.bytes_per_s".into(), "B/s");
    add("typeck.check_s".into(), "s");
    add("codegen.lower_s".into(), "s");
    add("codegen.ir_nodes".into(), "count");
    for b in descend_backends::BACKEND_NAMES {
        add(format!("backends.emit_s.{b}"), "s");
    }
    for b in descend_backends::BACKEND_NAMES {
        add(format!("backends.bytes.{b}"), "count");
    }
    add("compiler.session_s".into(), "s");
    for (kind, _, _) in query_counters(&QueryStats::default()) {
        add(format!("compiler.hits.{kind}"), "count");
        add(format!("compiler.misses.{kind}"), "count");
    }
    add("compiler.hit_ratio".into(), "ratio");
    for cmd in ["check", "emit", "profile"] {
        add(format!("serve.request_s.{cmd}"), "s");
    }
    add("serve.json_s".into(), "s");
    add("serve.transport_s".into(), "s");
    for k in ALL_BENCHMARKS {
        add(format!("gpu_sim.checked_s.{}", k.name()), "s");
        add(format!("gpu_sim.unchecked_s.{}", k.name()), "s");
    }
    add("gpu_sim.race_share".into(), "ratio");
    add("gpu_sim.ns_per_instruction".into(), "ns");
    add("gpu_sim.alloc_readback_s".into(), "s");
    for c in [
        "instructions",
        "global_transactions",
        "shared_replays",
        "atomic_serializations",
        "shuffles",
    ] {
        add(format!("gpu_sim.{c}"), "count");
    }
    add("gpu_sim.modeled_cycles".into(), "cycles");
    add("gpu_sim.descend_over_cuda".into(), "ratio");
    add("native.cc_s".into(), "s");
    for k in ALL_BENCHMARKS.into_iter().filter(|k| *k != BenchKind::Scan) {
        add(format!("native.run_s.{}", k.name()), "s");
    }
    add("native.marshal_s".into(), "s");
    add("native.spawn_kernel_s".into(), "s");
    add("tracing.overhead_ms_p10".into(), "ms");
    m
}

/// Per-layer metric values, all present from the start.
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = value;
    }
}

/// The query counters by kind, in the order the metrics list them.
pub fn query_counters(s: &QueryStats) -> [(&'static str, u64, u64); 5] {
    [
        ("parse", s.parse.hits, s.parse.misses),
        ("typeck", s.typeck.hits, s.typeck.misses),
        ("lower", s.lower.hits, s.lower.misses),
        ("emit", s.emit.hits, s.emit.misses),
        ("emit_program", s.emit_program.hits, s.emit_program.misses),
    ]
}

/// Query-session counters as per-layer metrics.
pub fn query_layers(stats: &QueryStats, out: &mut Layers) {
    for (kind, hits, misses) in query_counters(stats) {
        out.set(&format!("compiler.hits.{kind}"), hits as f64);
        out.set(&format!("compiler.misses.{kind}"), misses as f64);
    }
    let total = (stats.hits() + stats.misses()).max(1);
    out.set("compiler.hit_ratio", stats.hits() as f64 / total as f64);
}

/// Fisher-Yates shuffle driven by the seeded generator.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The files of `dir` that `keep` accepts, sorted by path.
pub fn read_dir_sorted(dir: &Path, keep: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| keep(p))
        .collect();
    out.sort();
    out
}

enum Workload {
    CompileCold(compile_cold::CompileCold),
    ServeEdit(serve_edit::ServeEdit),
    Fig8Exec(fig8_exec::Fig8Exec),
}

impl Workload {
    fn setup(name: &str, root: &Path, seed: u64, nproc: usize, checks: &mut Checks) -> Workload {
        match name {
            "compile_cold" => {
                Workload::CompileCold(compile_cold::CompileCold::setup(root, seed, checks))
            }
            "serve_edit" => Workload::ServeEdit(serve_edit::ServeEdit::setup(root, seed, checks)),
            "fig8_exec" => Workload::Fig8Exec(fig8_exec::Fig8Exec::setup(seed, nproc, checks)),
            other => unreachable!("workload `{other}` was validated"),
        }
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        match self {
            Workload::CompileCold(w) => w.run(seconds, tracer),
            Workload::ServeEdit(w) => w.run(seconds, tracer),
            Workload::Fig8Exec(w) => w.run(seconds, tracer),
        }
    }

    /// Checks made after the measured windows.
    fn verify(&self, checks: &mut Checks) {
        if let Workload::Fig8Exec(w) = self {
            w.verify_workers(checks);
        }
    }

    fn layers(&self, traced: &Window, t: &trace::SelfTimes, checks: &mut Checks, out: &mut Layers) {
        match self {
            Workload::CompileCold(w) => w.layers(traced, t, out),
            Workload::ServeEdit(w) => w.layers(traced, t, out),
            Workload::Fig8Exec(w) => w.layers(t, checks, out),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["compile_cold", "serve_edit", "fig8_exec"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Percentile of unsorted samples, interpolating linearly between the
/// two nearest ranks.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

fn cc_version() -> String {
    std::process::Command::new(std::env::var("CC").unwrap_or_else(|_| "cc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".into())
}

/// Set in the re-run that `taskset` pins to one CPU.
const PINNED: &str = "PERFBENCH_PINNED";

/// Re-runs this process under `taskset`, pinned to the first CPU it may
/// use, and returns the re-run's exit code; `None` when that fails.
///
/// `serve_edit` hands every request from the client thread to the server
/// thread and back. On different CPUs each hand-off wakes an idle CPU,
/// and on a VM that wake-up swings with host load: on a 2-vCPU VM,
/// unpinned runs of one seed measured 0.50 to 0.57 ms median latency,
/// pinned ones 0.33 to 0.34 ms. Both threads then share the CPU.
/// `serve_edit` does not run unpinned.
fn rerun_pinned() -> Option<ExitCode> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let cpus = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first: String = cpus
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .args(["-c", &first])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED, &first)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| c as u8)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "serve_edit" && std::env::var_os(PINNED).is_none() {
        // Unpinned figures are not comparable with pinned ones, so a run
        // that cannot pin measures nothing.
        return rerun_pinned().unwrap_or_else(|| {
            eprintln!("serve_edit must be pinned to one CPU, and `taskset` could not do it");
            ExitCode::FAILURE
        });
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();
    let exe = std::env::current_exe().expect("own executable path");
    let out_dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Native scratch files stay inside the build directory; the native
    // child uses at most `nproc` OpenMP threads; the one simulator run
    // `serve_edit` can trigger (`profile`) stays on the server thread.
    let tmp = out_dir.join("perfbench-tmp");
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var("OMP_NUM_THREADS", nproc.to_string());
    std::env::set_var("DESCEND_SIM_THREADS", "1");

    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let set_up = |checks: &mut Checks, setups: &mut Vec<f64>| {
        let t = Instant::now();
        let w = Workload::setup(&args.workload, &root, args.seed, nproc, checks);
        setups.push(t.elapsed().as_secs_f64());
        w
    };
    let mut workload = set_up(&mut checks, &mut setups);

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} pinned_cpu={} cc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var(PINNED).unwrap_or_else(|_| "none".into()),
        cc_version()
    );
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let attempted_ops;
    if args.trace {
        let untraced = workload.run(args.seconds / 2.0, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = workload.run(args.seconds / 2.0, &mut tracer);
        workload.verify(&mut checks);
        let mut layers = Layers(
            per_layer_metrics()
                .into_iter()
                .map(|(n, _)| (n, 0.0))
                .collect(),
        );
        match trace::self_times(tracer.spans()) {
            Ok(t) => workload.layers(&traced, &t, &mut checks, &mut layers),
            Err(e) => checks.fail(format!("malformed span tree: {e}")),
        }
        let overhead = percentile(&traced.latencies, 0.1) - percentile(&untraced.latencies, 0.1);
        layers.set("tracing.overhead_ms_p10", overhead * 1e3);
        let spans_path = out_dir.join(format!("perfbench-spans-{}.jsonl", args.workload));
        std::fs::write(&spans_path, trace::to_json_lines(tracer.spans())).expect("write spans");
        println!(
            "spans: {} in {}",
            tracer.spans().len(),
            spans_path.display()
        );
        for (name, unit) in per_layer_metrics() {
            metrics.push((name.clone(), layers.0[&name], unit));
        }
        attempted_ops = untraced.latencies.len() + traced.latencies.len();
        checks.merge(untraced.checks);
        checks.merge(traced.checks);
    } else {
        let slices = (args.seconds / SLICE_MIN_S)
            .min(args.seconds / (SLICE_PER_SETUP * setups[0]))
            .floor()
            .max(1.0) as usize;
        let mut window = Window::default();
        for slice in 0..slices {
            let extra = if slice == 0 {
                SETUP_REPS.saturating_sub(slices)
            } else {
                1
            };
            for _ in 0..extra {
                // Drop the previous set-up first so peak memory holds one.
                drop(workload);
                workload = set_up(&mut checks, &mut setups);
            }
            window.merge(workload.run(args.seconds / slices as f64, &mut Tracer::new(false)));
        }
        workload.verify(&mut checks);
        let lat = &window.latencies;
        // The machine's speed alternates between two levels about 1.5x
        // apart, and the share of slow time differs from run to run. The
        // 10th and 90th percentiles sit inside the fast and the slow level
        // and repeat; the median and the mean move with the share, so they
        // are printed for people but are not end-to-end metrics.
        let total: f64 = lat.iter().sum();
        println!(
            "op_ms_p50 = {} ms, ops_per_s = {} 1/s (not end-to-end metrics)",
            percentile(lat, 0.5) * 1e3,
            lat.len() as f64 / total
        );
        metrics.push(("setup_s".into(), percentile(&setups, 0.5), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.push(("op_ms_p10".into(), percentile(lat, 0.1) * 1e3, "ms"));
        metrics.push(("op_ms_p90".into(), percentile(lat, 0.9) * 1e3, "ms"));
        attempted_ops = lat.len();
        checks.merge(window.checks);
    }
    println!("operations: {attempted_ops}");
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let m = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name, m)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.failed == 0)),
        ("attempted".into(), Json::Num(checks.attempted as f64)),
        ("failed".into(), Json::Num(checks.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}
