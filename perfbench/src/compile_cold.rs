//! `compile_cold`: the batch compiler as a closed loop with one client.
//!
//! Every compile uses a fresh `CompileSession` with all four backends, so
//! every query misses: nearly all time goes to the parser, typeck,
//! lowering and the backends, and the query cache, `serve`, the simulator
//! and the native path are bypassed.
//!
//! An operation is one pass over the whole corpus, so every operation
//! measures the same work. Per-program compile times range from 0.1 ms to
//! about 30 ms (MM at 256²), so a percentile taken over single compiles
//! reports whichever program sits at that rank: the 90th sat where the
//! 6th- and 7th-slowest programs meet, where two ranks up or down moved
//! it by 14%.
//!
//! The traced window calls the phases one by one instead
//! (`parse` → `check_program` → `kernel_to_ir` → `emit_kernel` and
//! `emit_program` per backend) so each phase gets a span; its output is
//! checked byte for byte against what `compile_source` produced.

use crate::trace::{SelfTimes, Tracer};
use crate::{read_dir_sorted, shuffle, Checks, Layers, Window};
use descend_backends::{all_backends, KernelBackend, BACKEND_NAMES};
use descend_compiler::{CompileSession, QueryStats};
use descend_diag::Diagnostic;
use gpu_sim::{Expr, KernelIr, Stmt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Target text per backend name.
type Targets = BTreeMap<String, String>;

/// What a compile of one program must produce.
#[derive(PartialEq)]
enum Outcome {
    /// Whole translation units per backend, and per kernel its IR and
    /// text per backend.
    Compiled {
        targets: Targets,
        kernels: Vec<(KernelIr, Targets)>,
    },
    /// The golden document of the diagnostic: code, primary span and
    /// rendering, in the format of `conformance/*.expected`.
    Rejected(String),
}

struct Program {
    name: String,
    src: String,
    expected: Outcome,
}

pub struct CompileCold {
    programs: Vec<Program>,
    backends: Vec<Box<dyn KernelBackend>>,
    ir_nodes: u64,
    bytes: BTreeMap<String, u64>,
    stats: QueryStats,
}

/// What the program's source pins about its compile.
enum Pin {
    Compiles,
    /// The fail corpus names the error kind on its first line (`//~`).
    Kind(String),
    /// A conformance program's `.expected` golden document.
    Golden(String),
}

fn golden(src: &str, diag: &Diagnostic, rendered: &str) -> String {
    let code = diag.code.unwrap_or("none");
    let span = if diag.primary.span.is_dummy() {
        "none".to_string()
    } else {
        let (line, col) = descend_diag::line_col(src, diag.primary.span.start);
        format!("{line}:{col}")
    };
    let mut doc = format!("code: {code}\nspan: {span}\n\n{rendered}");
    if !doc.ends_with('\n') {
        doc.push('\n');
    }
    doc
}

fn lowering_golden(e: &impl std::fmt::Display) -> String {
    let diag = Diagnostic::coded(
        descend_diag::registry::LOWERING_FAILED,
        descend_ast::Span::DUMMY,
        e.to_string(),
    );
    golden("", &diag, &diag.render(""))
}

/// Compiles through the memoized pipeline in a fresh session.
fn compile_session(src: &str) -> (Outcome, QueryStats) {
    let mut session = CompileSession::new();
    let outcome = match session.compile_source(src) {
        Ok(c) => Outcome::Compiled {
            targets: c.target_sources,
            kernels: c.kernels.into_iter().map(|k| (k.ir, k.targets)).collect(),
        },
        Err(e) => Outcome::Rejected(golden(src, &e.diag, &e.rendered)),
    };
    (outcome, *session.stats())
}

fn emit_span(backend: &str) -> &'static str {
    match backend {
        "cuda" => "backends.emit.cuda",
        "opencl" => "backends.emit.opencl",
        "wgsl" => "backends.emit.wgsl",
        "c" => "backends.emit.c",
        other => unreachable!("unregistered backend `{other}`"),
    }
}

/// Compiles phase by phase, one span per call into a layer.
fn compile_phased(
    src: &str,
    backends: &[Box<dyn KernelBackend>],
    tracer: &mut Tracer,
    req: u64,
) -> Outcome {
    let ast = match tracer.span("parser.parse", req, || descend_parser::parse(src)) {
        Ok(ast) => ast,
        Err(e) => {
            let diag = e.to_diagnostic();
            return Outcome::Rejected(golden(src, &diag, &diag.render(src)));
        }
    };
    let checked = match tracer.span("typeck.check", req, || descend_typeck::check_program(&ast)) {
        Ok(c) => c,
        Err(e) => return Outcome::Rejected(golden(src, &e.diag, &e.diag.render(src))),
    };
    let mut kernels = Vec::new();
    for mk in &checked.kernels {
        match tracer.span("codegen.lower", req, || descend_codegen::kernel_to_ir(mk)) {
            Ok(ir) => kernels.push((ir, Targets::new())),
            Err(e) => return Outcome::Rejected(lowering_golden(&e)),
        }
    }
    let mut targets = Targets::new();
    for be in backends {
        let name = emit_span(be.name());
        for (mk, (_, texts)) in checked.kernels.iter().zip(&mut kernels) {
            match tracer.span(name, req, || be.emit_kernel(mk)) {
                Ok(text) => texts.insert(be.name().to_string(), text),
                Err(e) => return Outcome::Rejected(lowering_golden(&e)),
            };
        }
        match tracer.span(name, req, || be.emit_program(&checked)) {
            Ok(text) => targets.insert(be.name().to_string(), text),
            Err(e) => return Outcome::Rejected(lowering_golden(&e)),
        };
    }
    Outcome::Compiled { targets, kernels }
}

/// IR size: statements plus expression nodes.
fn ir_nodes(ir: &KernelIr) -> u64 {
    fn expr(e: &Expr) -> u64 {
        1 + match e {
            Expr::LoadGlobal { idx, .. } | Expr::LoadShared { idx, .. } => expr(idx),
            Expr::Bin(_, a, b) => expr(a) + expr(b),
            Expr::Un(_, a) => expr(a),
            _ => 0,
        }
    }
    fn stmts(ss: &[Stmt]) -> u64 {
        ss.iter()
            .map(|s| {
                1 + match s {
                    Stmt::SetLocal(_, e) => expr(e),
                    Stmt::StoreGlobal { idx, value, .. }
                    | Stmt::StoreShared { idx, value, .. }
                    | Stmt::AtomicGlobal { idx, value, .. }
                    | Stmt::AtomicShared { idx, value, .. } => expr(idx) + expr(value),
                    Stmt::If {
                        cond,
                        then_s,
                        else_s,
                    } => expr(cond) + stmts(then_s) + stmts(else_s),
                    Stmt::Loop {
                        init, bound, body, ..
                    } => expr(init) + expr(bound) + stmts(body),
                    Stmt::Shfl { value, .. } => expr(value),
                    Stmt::Barrier | Stmt::Src(_) => 0,
                }
            })
            .sum()
    }
    stmts(&ir.body)
}

fn add_stats(total: &mut QueryStats, s: &QueryStats) {
    for (t, s) in [
        (&mut total.parse, s.parse),
        (&mut total.typeck, s.typeck),
        (&mut total.lower, s.lower),
        (&mut total.emit, s.emit),
        (&mut total.emit_program, s.emit_program),
    ] {
        t.hits += s.hits;
        t.misses += s.misses;
    }
}

impl CompileCold {
    /// Loads the corpus, compiles every program once to record what each
    /// compile must produce, and checks that against the corpus pins.
    pub fn setup(root: &Path, seed: u64, checks: &mut Checks) -> CompileCold {
        let mut pinned: Vec<(String, String, Pin)> = Vec::new();
        let descend = |p: &Path| p.extension().is_some_and(|e| e == "descend");
        for path in read_dir_sorted(&root.join("examples/descend"), descend) {
            let src = std::fs::read_to_string(&path).expect("corpus program is readable");
            pinned.push((format!("pass/{}", stem(&path)), src, Pin::Compiles));
        }
        for path in read_dir_sorted(&root.join("examples/descend/fail"), descend) {
            let src = std::fs::read_to_string(&path).expect("fail program is readable");
            let kind = src
                .lines()
                .next()
                .and_then(|l| l.strip_prefix("//~"))
                .expect("fail program pins its error kind on line 1")
                .trim()
                .to_string();
            pinned.push((format!("fail/{}", stem(&path)), src, Pin::Kind(kind)));
        }
        for path in read_dir_sorted(&root.join("conformance"), descend) {
            let src = std::fs::read_to_string(&path).expect("conformance program is readable");
            let doc = std::fs::read_to_string(path.with_extension("expected"))
                .expect("conformance program has an .expected golden");
            pinned.push((
                format!("conformance/{}", stem(&path)),
                src,
                Pin::Golden(doc),
            ));
        }
        for kind in descend_benchmarks::ALL_BENCHMARKS {
            let src = crate::fig8_exec::kernel_source(kind);
            pinned.push((format!("fig8/{}", kind.name()), src, Pin::Compiles));
        }
        shuffle(&mut StdRng::seed_from_u64(seed), &mut pinned);

        let mut programs = Vec::new();
        let mut ir_total = 0;
        let mut bytes: BTreeMap<String, u64> =
            BACKEND_NAMES.iter().map(|b| (b.to_string(), 0)).collect();
        let mut stats = QueryStats::default();
        for (name, src, pin) in pinned {
            let (expected, s) = compile_session(&src);
            add_stats(&mut stats, &s);
            match (&pin, &expected) {
                (Pin::Compiles, Outcome::Compiled { targets, kernels }) => {
                    checks.pass();
                    ir_total += kernels.iter().map(|(ir, _)| ir_nodes(ir)).sum::<u64>();
                    for (b, text) in targets {
                        *bytes.get_mut(b).expect("registered backend") += text.len() as u64;
                    }
                }
                (Pin::Kind(kind), Outcome::Rejected(doc)) => {
                    // The session path's type error must carry the pinned
                    // kind; recheck to read the structured kind.
                    let got = descend_parser::parse(&src)
                        .ok()
                        .and_then(|ast| descend_typeck::check_program(&ast).err())
                        .map(|e| e.kind.to_string());
                    checks.check(got.as_deref() == Some(kind.as_str()), || {
                        format!("{name}: expected `{kind}`, got {got:?}\n{doc}")
                    });
                }
                (Pin::Golden(want), Outcome::Rejected(doc)) => {
                    checks.check(doc == want, || {
                        format!("{name}: diagnostic drifted:\n{doc}")
                    });
                }
                (_, Outcome::Compiled { .. }) => checks.fail(format!("{name}: must be rejected")),
                (_, Outcome::Rejected(doc)) => {
                    checks.fail(format!("{name}: must compile, got\n{doc}"))
                }
            }
            programs.push(Program {
                name,
                src,
                expected,
            });
        }
        CompileCold {
            programs,
            backends: all_backends(),
            ir_nodes: ir_total,
            bytes,
            stats,
        }
    }

    /// Compiles whole passes over the corpus until `seconds` have passed.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut req = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let pass = Instant::now();
            for p in &self.programs {
                let got = if tracer.enabled() {
                    let root = tracer.enter("compile", req);
                    let got = compile_phased(&p.src, &self.backends, tracer, req);
                    tracer.exit(root);
                    got
                } else {
                    compile_session(&p.src).0
                };
                w.bytes += p.src.len() as u64;
                req += 1;
                w.checks.check(got == p.expected, || {
                    format!("{}: compile output differs from the first compile", p.name)
                });
            }
            w.latencies.push(pass.elapsed().as_secs_f64());
        }
        w
    }

    /// Per-layer metrics from the traced window, per compile.
    pub fn layers(&self, traced: &Window, t: &SelfTimes, out: &mut Layers) {
        let ops = (traced.latencies.len() * self.programs.len()).max(1) as f64;
        let secs = |name: &str| t.get(name).map_or(0.0, |v| v.0);
        let parse = secs("parser.parse");
        out.set("parser.parse_s", parse / ops);
        if parse > 0.0 {
            out.set("parser.bytes_per_s", traced.bytes as f64 / parse);
        }
        out.set("typeck.check_s", secs("typeck.check") / ops);
        out.set("codegen.lower_s", secs("codegen.lower") / ops);
        out.set("codegen.ir_nodes", self.ir_nodes as f64);
        for b in BACKEND_NAMES {
            out.set(&format!("backends.emit_s.{b}"), secs(emit_span(b)) / ops);
            out.set(&format!("backends.bytes.{b}"), self.bytes[*b] as f64);
        }
        crate::query_layers(&self.stats, out);
    }
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .expect("corpus file has a name")
        .to_string_lossy()
        .into_owned()
}
