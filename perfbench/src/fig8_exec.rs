//! `fig8_exec`: the seven Figure-8 programs executed at paper scale.
//!
//! Sizes are 2^20 elements (Transpose at 1024², MM at 256²). Each
//! program is compiled once during setup, together with a host function
//! generated here that copies the inputs to the GPU, launches the kernel
//! and copies the results back. One pass runs every program on the
//! simulator with race detection on, again with it off, and natively
//! through the C backend (compiled with `cc` during setup). Scan's
//! host-side offset step cannot be written in Descend, so its two
//! kernels are two host functions with the step in between, and Scan
//! runs on the simulator only.
//!
//! An operation is one whole pass: every program races on, races off
//! and natively. Its latency sums launch time on the simulator and
//! `CompiledNative::run` natively, so every operation measures the same
//! work; the split by path is left to the per-layer metrics. Nearly all
//! time is in `gpu-sim` and `native`; the compiler runs only in setup.

use crate::trace::{SelfTimes, Tracer};
use crate::{Checks, Layers, Window};
use descend_benchmarks::{reference, run_benchmark, BenchKind, ALL_BENCHMARKS};
use descend_codegen::ir_gen::elem_ty;
use descend_compiler::{Compiled, Compiler};
use descend_native::{format_inputs, parse_dump, CompiledNative, Toolchain};
use descend_typeck::HostStmt;
use gpu_sim::device::{quantize_scalar, BufId};
use gpu_sim::{Gpu, LaunchConfig, LaunchStats};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

/// Elements of the 1-D programs.
const N: usize = 1 << 20;
/// Matrix dimension of Transpose.
const TRANSPOSE_N: usize = 1024;
/// Matrix dimension of MM.
const MM_N: usize = 256;

type Buffers = HashMap<String, Vec<f64>>;

struct Program {
    name: &'static str,
    kind: BenchKind,
    param: usize,
    seed: u64,
    compiled: Compiled,
    native: Option<CompiledNative>,
    inputs: Buffers,
    /// The CPU buffer holding the result, and its reference contents.
    output: &'static str,
    expected: Vec<f64>,
}

/// What one simulated run of a program produced.
struct SimRun {
    output: Vec<f64>,
    stats: Vec<LaunchStats>,
    launch_s: f64,
    /// Span name of its launches, and its operation id.
    span: String,
    req: u64,
}

pub struct Fig8Exec {
    programs: Vec<Program>,
    workers: usize,
    cc_s: f64,
    /// Per program: the last window's output and launch statistics with
    /// `workers` simulator threads (races off).
    last: Vec<Option<(Vec<f64>, Vec<LaunchStats>)>>,
    passes: u64,
    native_runs: u64,
}

/// A host function that copies every buffer to the GPU, launches
/// `kernel` on them once and copies the written ones back. Buffers are
/// `(name, type, written)`.
fn host_fn(name: &str, kernel: &str, shape: (&str, &str), bufs: &[(&str, String, bool)]) -> String {
    let mut body = String::new();
    for (b, ty, _) in bufs {
        body.push_str(&format!("    let h_{b} = alloc::<cpu.mem, {ty}>();\n"));
    }
    for (b, _, _) in bufs {
        body.push_str(&format!("    let d_{b} = gpu_alloc_copy(&h_{b});\n"));
    }
    let args: Vec<String> = bufs
        .iter()
        .map(|(b, _, w)| format!("&{}d_{b}", if *w { "uniq " } else { "" }))
        .collect();
    body.push_str(&format!(
        "    {kernel}<<<{}, {}>>>({});\n",
        shape.0,
        shape.1,
        args.join(", ")
    ));
    for (b, _, w) in bufs {
        if *w {
            body.push_str(&format!("    copy_mem_to_host(&uniq h_{b}, &d_{b});\n"));
        }
    }
    format!("\nfn {name}() -[t: cpu.thread]-> () {{\n{body}}}\n")
}

fn f64s(n: usize) -> String {
    format!("[f64; {n}]")
}

fn matrix(n: usize) -> String {
    format!("[[f64; {n}]; {n}]")
}

/// The Figure-8 kernels of one program at paper scale.
pub fn kernel_source(kind: BenchKind) -> String {
    use descend_benchmarks::sources as s;
    match kind {
        BenchKind::Reduce => s::reduce(N),
        BenchKind::ReduceShuffle => s::reduce_shuffle(N),
        BenchKind::Transpose => s::transpose(TRANSPOSE_N),
        BenchKind::Matmul => s::matmul(MM_N),
        BenchKind::Histogram => s::histogram(N),
        BenchKind::Stencil => s::stencil(N),
        BenchKind::Scan => format!("{}{}", s::scan_blocks(N), s::scan_add_offsets(N)),
    }
}

/// The host functions that run [`kernel_source`]'s kernels.
fn host_source(kind: BenchKind) -> String {
    use descend_benchmarks::sources as s;
    let nb = N / s::BLOCK_SIZE;
    let x = |g: usize, b: usize| (format!("X<{g}>"), format!("X<{b}>"));
    let (g, b) = x(nb, s::BLOCK_SIZE);
    match kind {
        BenchKind::Reduce | BenchKind::ReduceShuffle => {
            let name = if kind == BenchKind::Reduce {
                "reduce"
            } else {
                "reduce_shfl"
            };
            let bufs = [("inp", f64s(N), false), ("out", f64s(nb), true)];
            host_fn("main", name, (&g, &b), &bufs)
        }
        BenchKind::Transpose => {
            let t = TRANSPOSE_N;
            let grid = format!("XY<{},{}>", t / 32, t / 32);
            let bufs = [("inp", matrix(t), false), ("out", matrix(t), true)];
            host_fn("main", "transpose", (&grid, "XY<32,8>"), &bufs)
        }
        BenchKind::Matmul => {
            let grid = format!("XY<{},{}>", MM_N / 32, MM_N / 32);
            let bufs = [
                ("a", matrix(MM_N), false),
                ("b", matrix(MM_N), false),
                ("c", matrix(MM_N), true),
            ];
            host_fn("main", "matmul", (&grid, "XY<32,32>"), &bufs)
        }
        BenchKind::Histogram => {
            let (g, b) = x(N / s::HIST_BLOCK, s::HIST_BLOCK);
            let bufs = [
                ("inp", format!("[i32; {N}]"), false),
                ("hist", format!("[i32; {}]", s::HIST_BINS), true),
            ];
            host_fn("main", "histogram", (&g, &b), &bufs)
        }
        BenchKind::Stencil => {
            let (g, b) = x(N / s::STENCIL_BLOCK, s::STENCIL_BLOCK);
            let bufs = [("inp", f64s(N + 2), false), ("out", f64s(N), true)];
            host_fn("main", "stencil", (&g, &b), &bufs)
        }
        BenchKind::Scan => {
            let blocks = [("io", f64s(N), true), ("sums", f64s(nb), true)];
            let offsets = [("io", f64s(N), true), ("offsets", f64s(nb), false)];
            host_fn("scan_blocks_host", "scan_blocks", (&g, &b), &blocks)
                + &host_fn("add_offsets_host", "add_offsets", (&g, &b), &offsets)
        }
    }
}

/// Seeded inputs, drawn exactly as `descend_benchmarks::run_benchmark`
/// draws them, so the Figure-8 ratio is taken on the same data.
fn uniform(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn ints(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| f64::from(rng.gen_range(0i32..4096)))
        .collect()
}

fn exclusive_scan(sums: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; sums.len()];
    for i in 1..sums.len() {
        out[i] = out[i - 1] + sums[i - 1];
    }
    out
}

/// Inputs, result buffer and its reference contents.
fn workload(kind: BenchKind, seed: u64) -> (usize, Buffers, &'static str, Vec<f64>) {
    use descend_benchmarks::sources as s;
    let one = |name: &str, data: Vec<f64>| Buffers::from([(name.to_string(), data)]);
    match kind {
        BenchKind::Reduce | BenchKind::ReduceShuffle => {
            let data = uniform(N, seed);
            let want = reference::block_sums(&data, s::BLOCK_SIZE);
            (N, one("h_inp", data), "h_out", want)
        }
        BenchKind::Transpose => {
            let data = uniform(TRANSPOSE_N * TRANSPOSE_N, seed);
            let want = reference::transpose(&data, TRANSPOSE_N);
            (TRANSPOSE_N, one("h_inp", data), "h_out", want)
        }
        BenchKind::Matmul => {
            let a = uniform(MM_N * MM_N, seed);
            let b = uniform(MM_N * MM_N, seed.wrapping_add(1));
            let want = reference::matmul(&a, &b, MM_N);
            let inputs = Buffers::from([("h_a".to_string(), a), ("h_b".to_string(), b)]);
            (MM_N, inputs, "h_c", want)
        }
        BenchKind::Histogram => {
            let data = ints(N, seed);
            let want = reference::histogram(&data, s::HIST_BINS);
            (N, one("h_inp", data), "h_hist", want)
        }
        BenchKind::Stencil => {
            let data = uniform(N + 2, seed);
            let want = reference::stencil3(&data);
            (N, one("h_inp", data), "h_out", want)
        }
        BenchKind::Scan => {
            let data = uniform(N, seed);
            let want = reference::inclusive_scan(&data);
            (N, one("h_io", data), "h_io", want)
        }
    }
}

fn launch_config(detect_races: bool, workers: usize) -> LaunchConfig {
    LaunchConfig {
        detect_races,
        workers: Some(workers),
        ..LaunchConfig::default()
    }
}

fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * g.abs().max(w.abs()).max(1.0))
}

impl Program {
    /// Runs one host function on the simulator, timing launches apart
    /// from allocation and copies.
    fn run_host(
        &self,
        host: &str,
        inputs: &Buffers,
        cfg: &LaunchConfig,
        tracer: &mut Tracer,
        run: &mut SimRun,
    ) -> Result<Buffers, String> {
        let stmts = self
            .compiled
            .checked
            .host_fn(host)
            .ok_or_else(|| format!("no host function `{host}`"))?;
        let mut gpu = Gpu::new();
        let mut cpu = Buffers::new();
        let mut dev: HashMap<&str, BufId> = HashMap::new();
        for s in stmts {
            if let HostStmt::Launch { kernel, args } = s {
                let k = &self.compiled.kernels[*kernel];
                let bufs: Vec<BufId> = args.iter().map(|a| dev[a.as_str()]).collect();
                let t = Instant::now();
                let open = tracer.enter(Cow::Owned(run.span.clone()), run.req);
                let stats = gpu.launch(&k.ir, k.mono.grid_dim, k.mono.block_dim, &bufs, cfg);
                tracer.exit(open);
                run.launch_s += t.elapsed().as_secs_f64();
                run.stats
                    .push(stats.map_err(|e| format!("kernel `{}`: {e}", k.ir.name))?);
                continue;
            }
            let open = tracer.enter("gpu_sim.alloc_readback", run.req);
            match s {
                HostStmt::AllocCpu { name, elem, len } => {
                    let e = elem_ty(*elem);
                    let data = match inputs.get(name) {
                        Some(init) => init.iter().map(|v| quantize_scalar(e, *v)).collect(),
                        None => vec![0.0; *len as usize],
                    };
                    cpu.insert(name.clone(), data);
                }
                HostStmt::AllocGpu { name, elem, len } => {
                    let id = gpu.alloc_scalars(elem_ty(*elem), &vec![0.0; *len as usize]);
                    dev.insert(name, id);
                }
                HostStmt::AllocGpuCopy { name, src, elem } => {
                    let id = gpu.alloc_scalars(elem_ty(*elem), &cpu[src]);
                    dev.insert(name, id);
                }
                HostStmt::CopyToHost { dst, src } => {
                    let data = gpu.read_scalars(dev[src.as_str()]);
                    cpu.insert(dst.clone(), data);
                }
                HostStmt::CopyToGpu { dst, src } => gpu.write_scalars(dev[dst.as_str()], &cpu[src]),
                HostStmt::Launch { .. } => unreachable!("launches are handled above"),
            }
            tracer.exit(open);
        }
        Ok(cpu)
    }

    /// Runs the program on the simulator.
    fn simulate(
        &self,
        cfg: &LaunchConfig,
        tracer: &mut Tracer,
        req: u64,
    ) -> Result<SimRun, String> {
        let path = if cfg.detect_races {
            "checked"
        } else {
            "unchecked"
        };
        let mut run = SimRun {
            output: Vec::new(),
            stats: Vec::new(),
            launch_s: 0.0,
            span: format!("gpu_sim.launch.{path}.{}", self.name),
            req,
        };
        let root = tracer.enter("fig8.exec", req);
        let result = if self.kind == BenchKind::Scan {
            self.run_host("scan_blocks_host", &self.inputs, cfg, tracer, &mut run)
                .and_then(|mut bufs| {
                    let offsets = exclusive_scan(&bufs["h_sums"]);
                    bufs.insert("h_offsets".into(), offsets);
                    bufs.remove("h_sums");
                    self.run_host("add_offsets_host", &bufs, cfg, tracer, &mut run)
                })
        } else {
            self.run_host("main", &self.inputs, cfg, tracer, &mut run)
        };
        tracer.exit(root);
        run.output = result?.remove(self.output).ok_or("result buffer missing")?;
        Ok(run)
    }
}

impl Fig8Exec {
    pub fn setup(seed: u64, workers: usize, checks: &mut Checks) -> Fig8Exec {
        let toolchain = Toolchain::detect();
        checks.check(toolchain.is_some(), || "no host C compiler".to_string());
        let mut cc_s = 0.0;
        let mut programs = Vec::new();
        for (i, kind) in ALL_BENCHMARKS.into_iter().enumerate() {
            let name = kind.name();
            let compiled = Compiler::new()
                .compile_source(&(kernel_source(kind) + &host_source(kind)))
                .unwrap_or_else(|e| panic!("{name} fails to compile: {e}"));
            let native = match (&toolchain, kind) {
                (Some(tc), k) if k != BenchKind::Scan => {
                    let c = compiled.target_source("c").expect("C backend selected");
                    let t = Instant::now();
                    let exe = tc.compile(c);
                    cc_s += t.elapsed().as_secs_f64();
                    checks.check(exe.is_ok(), || format!("{name}: cc failed: {exe:?}"));
                    exe.ok()
                }
                _ => None,
            };
            let seed = seed.wrapping_add(i as u64);
            let (param, inputs, output, expected) = workload(kind, seed);
            programs.push(Program {
                name,
                kind,
                param,
                seed,
                compiled,
                native,
                inputs,
                output,
                expected,
            });
        }
        Fig8Exec {
            last: programs.iter().map(|_| None).collect(),
            programs,
            workers,
            cc_s,
            passes: 0,
            native_runs: 0,
        }
    }

    /// Runs whole passes over the seven programs until `seconds` have
    /// passed.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut req = 0u64;
        self.passes = 0;
        self.native_runs = 0;
        while start.elapsed().as_secs_f64() < seconds {
            // Launch and native run time of this pass.
            let mut pass_s = 0.0;
            for (i, p) in self.programs.iter().enumerate() {
                let mut stats = Vec::new();
                for races in [true, false] {
                    let cfg = launch_config(races, self.workers);
                    match p.simulate(&cfg, tracer, req) {
                        Ok(run) => {
                            pass_s += run.launch_s;
                            w.checks.check(close(&run.output, &p.expected), || {
                                format!("{}: simulated result differs from the reference", p.name)
                            });
                            stats.push(run.stats.clone());
                            if !races {
                                self.last[i] = Some((run.output, run.stats));
                            }
                        }
                        Err(e) => w.checks.fail(format!("{}: {e}", p.name)),
                    }
                    req += 1;
                }
                w.checks
                    .check(stats.len() == 2 && stats[0] == stats[1], || {
                        format!("{}: race detection changed the modeled statistics", p.name)
                    });
                if let Some(native) = &p.native {
                    let root = tracer.enter("fig8.exec", req);
                    let t = Instant::now();
                    let open = tracer.enter(Cow::Owned(format!("native.run.{}", p.name)), req);
                    let got = native.run("main", &p.inputs);
                    tracer.exit(open);
                    pass_s += t.elapsed().as_secs_f64();
                    self.native_runs += 1;
                    match got {
                        Ok(bufs) => {
                            let sim = self.last[i].as_ref().map(|(out, _)| out);
                            w.checks
                                .check(sim.is_some_and(|s| bufs.get(p.output) == Some(s)), || {
                                    format!("{}: native result differs from the simulator", p.name)
                                });
                            if tracer.enabled() {
                                // The dump the binary printed, re-created
                                // from its parsed values.
                                let dump = format_inputs(&bufs);
                                let open = tracer.enter("native.marshal", req);
                                let _ = format_inputs(&p.inputs);
                                let parsed = parse_dump(&dump);
                                tracer.exit(open);
                                w.checks.check(parsed.is_ok_and(|d| d == bufs), || {
                                    "native dump does not round-trip".to_string()
                                });
                            }
                        }
                        Err(e) => w.checks.fail(format!("{}: native run failed: {e}", p.name)),
                    }
                    tracer.exit(root);
                    req += 1;
                }
            }
            w.latencies.push(pass_s);
            self.passes += 1;
        }
        w
    }

    /// Re-runs every program with one simulator thread: results and
    /// modeled statistics must equal the window's multi-threaded ones.
    pub fn verify_workers(&self, checks: &mut Checks) {
        let cfg = launch_config(false, 1);
        let mut off = Tracer::new(false);
        for (p, last) in self.programs.iter().zip(&self.last) {
            let run = p.simulate(&cfg, &mut off, 0);
            let same = match (&run, last) {
                (Ok(r), Some((out, stats))) => &r.output == out && &r.stats == stats,
                _ => false,
            };
            checks.check(same, || {
                format!("{}: one simulator thread gives a different run", p.name)
            });
        }
    }

    /// Per-layer metrics from the traced window.
    pub fn layers(&self, t: &SelfTimes, checks: &mut Checks, out: &mut Layers) {
        let secs = |name: &str| t.get(name).map_or(0.0, |v| v.0);
        let passes = self.passes.max(1) as f64;
        let (mut checked, mut unchecked) = (0.0, 0.0);
        for p in &self.programs {
            let c = secs(&format!("gpu_sim.launch.checked.{}", p.name));
            let u = secs(&format!("gpu_sim.launch.unchecked.{}", p.name));
            out.set(&format!("gpu_sim.checked_s.{}", p.name), c / passes);
            out.set(&format!("gpu_sim.unchecked_s.{}", p.name), u / passes);
            checked += c;
            unchecked += u;
            if p.native.is_some() {
                let run = secs(&format!("native.run.{}", p.name));
                out.set(&format!("native.run_s.{}", p.name), run / passes);
            }
        }
        if checked > 0.0 {
            out.set("gpu_sim.race_share", (checked - unchecked) / checked);
        }
        let sim_runs = 2.0 * passes * self.programs.len() as f64;
        out.set(
            "gpu_sim.alloc_readback_s",
            secs("gpu_sim.alloc_readback") / sim_runs,
        );

        let mut total = LaunchStats::default();
        let mut ratios = Vec::new();
        let mut cycles = 0;
        let cfg = launch_config(false, self.workers);
        for (p, last) in self.programs.iter().zip(&self.last) {
            let Some((_, stats)) = last else { continue };
            let descend: u64 = stats.iter().map(|s| s.cycles).sum();
            cycles += descend;
            for s in stats {
                total.instructions += s.instructions;
                total.global_transactions += s.global_transactions;
                total.shared_replays += s.shared_replays;
                total.atomic_serializations += s.atomic_serializations;
                total.shuffles += s.shuffles;
            }
            // The handwritten baseline on the same seeded data; its
            // Descend side must model exactly the cycles measured here.
            let r = run_benchmark(p.kind, p.param, p.seed, &cfg);
            checks.check(r.descend_cycles == descend, || {
                format!(
                    "{}: {} modeled cycles here, {} in run_benchmark",
                    p.name, descend, r.descend_cycles
                )
            });
            ratios.push(r.descend_over_cuda());
        }
        if total.instructions > 0 {
            let ns = (checked + unchecked) * 1e9 / (total.instructions as f64 * 2.0 * passes);
            out.set("gpu_sim.ns_per_instruction", ns);
        }
        out.set("gpu_sim.instructions", total.instructions as f64);
        out.set(
            "gpu_sim.global_transactions",
            total.global_transactions as f64,
        );
        out.set("gpu_sim.shared_replays", total.shared_replays as f64);
        out.set(
            "gpu_sim.atomic_serializations",
            total.atomic_serializations as f64,
        );
        out.set("gpu_sim.shuffles", total.shuffles as f64);
        out.set("gpu_sim.modeled_cycles", cycles as f64);
        if !ratios.is_empty() {
            let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
            out.set("gpu_sim.descend_over_cuda", log_mean.exp());
        }

        let runs = self.native_runs.max(1) as f64;
        let run_total: f64 = t
            .iter()
            .filter(|(k, _)| k.starts_with("native.run."))
            .map(|(_, v)| v.0)
            .sum();
        let marshal = secs("native.marshal");
        out.set("native.cc_s", self.cc_s);
        out.set("native.marshal_s", marshal / runs);
        out.set("native.spawn_kernel_s", (run_total - marshal) / runs);
    }
}
