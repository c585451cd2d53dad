//! `serve_edit`: an editor loop against the `descendc serve` protocol,
//! as a closed loop with one client.
//!
//! The server is the library's `serve` loop, the one `descendc serve`
//! runs, on a thread of this process; it talks line-delimited JSON over a
//! Unix socket pair. Each request is timed from the moment its line is
//! written until its response line is read.
//!
//! A seeded script of edits to the pass corpus drives the requests. The
//! editor visits every file seven times, in a seeded order, and sends 20
//! requests per visit. Five follow an edit of one function: a new value
//! for one of its float literals, or, where it has none, a changed comment
//! inside it. One follows the injection of a coded type error into
//! `main`. The rest resend the unchanged buffer, which are pure cache
//! hits. Commands are 15 `check`, 4 `emit` of one or two targets and one
//! `profile` per visit. These proportions are assumed, not taken from a
//! recorded editor session, and are not meant as representative editor
//! traffic: resends are 70% of requests so that the fast end (10th
//! percentile) and the median request are pure cache hits (JSON transport
//! and query-cache lookups), and edits are 30% so that edit misses
//! (re-checking and re-emitting the changed function) make up the slow
//! tail together with `profile`, which simulates on every request. The mix is fixed and only its order and the edits
//! are seeded, so seeds differ in inputs, not in the amount of work. One
//! pass over the script is one editing session: each pass starts a fresh
//! server, so every pass sees the same hits and misses.
//!
//! The server's internals cannot be timed from the client, so the traced
//! window replays each request's layers on the client thread after the
//! response arrived: a `CompileSession` fed the same sources in the same
//! order (`compiler.session`), and the request's `parse_json` plus the
//! response's `to_string_compact` (`serve.json`).

use crate::trace::{SelfTimes, Tracer};
use crate::{read_dir_sorted, shuffle, Checks, Layers, Window};
use descend_backends::BACKEND_NAMES;
use descend_compiler::server::{parse_json, serve, Json};
use descend_compiler::{CompileSession, QueryStats};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, LineWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

const COMMANDS: [&str; 3] = ["check", "emit", "profile"];

/// Visits to each corpus file per editing session.
const VISITS_PER_FILE: usize = 7;

#[derive(Clone, Copy)]
enum Action {
    Edit,
    Error,
    Resend,
}

/// What the requests of one visit follow, with counts: a fixed, assumed
/// mix in a seeded order, so every seed sends the same mix of work.
const VISIT_ACTIONS: [(Action, usize); 3] =
    [(Action::Edit, 5), (Action::Error, 1), (Action::Resend, 14)];

/// The commands of one visit's requests (indices into [`COMMANDS`]), with
/// counts; `profile` falls back to `check` for a file without `main`.
const VISIT_COMMANDS: [(usize, usize); 3] = [(0, 15), (1, 4), (2, 1)];

fn visit_mix<T: Copy>(mix: &[(T, usize)]) -> Vec<T> {
    mix.iter()
        .flat_map(|&(item, n)| std::iter::repeat_n(item, n))
        .collect()
}

struct Request {
    /// Index into [`COMMANDS`].
    cmd: usize,
    src: String,
    line: String,
    expected: String,
}

pub struct ServeEdit {
    script: Vec<Request>,
    /// The `stats` response the server must give after one cycle.
    expected_stats: String,
    stats: QueryStats,
    /// Per command: summed latency (s) and count, traced window.
    per_cmd: [(f64, u64); 3],
    /// Summed request latency and replayed session time (s) of the
    /// traced window's `check` and `emit` requests.
    compile_requests: (f64, f64),
}

/// Byte ranges of the top-level functions of a program.
fn functions(src: &str) -> Vec<(usize, usize)> {
    let starts: Vec<usize> = src
        .match_indices("fn ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || src.as_bytes()[i - 1] == b'\n')
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &s)| (s, starts.get(k + 1).copied().unwrap_or(src.len())))
        .collect()
}

/// Offset just past the opening brace of the function body at `start`.
fn body_start(src: &str, start: usize) -> usize {
    let arrow = start
        + src[start..]
            .find("]->")
            .expect("function has an exec annotation");
    arrow + src[arrow..].find('{').expect("function has a body") + 1
}

/// Float literals (`12.5`) in `src[range]`, as byte ranges.
fn float_literals(src: &str, (lo, hi): (usize, usize)) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        if b[i].is_ascii_digit()
            && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
        {
            let mut j = i;
            while j < hi && b[j].is_ascii_digit() {
                j += 1;
            }
            if j + 1 < hi && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                let mut k = j + 1;
                while k < hi && b[k].is_ascii_digit() {
                    k += 1;
                }
                out.push((i, k));
                i = k;
                continue;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Edits one function: a new value for one of its float literals, or a
/// new comment line inside it.
fn edit(src: &str, rng: &mut StdRng, version: u64) -> String {
    let fns = functions(src);
    let f = fns[rng.gen_range(0..fns.len())];
    let lits = float_literals(src, f);
    if !lits.is_empty() {
        let (a, b) = lits[rng.gen_range(0..lits.len())];
        let lit = format!("{}.{}", rng.gen_range(1u32..10), rng.gen_range(0u32..100));
        return format!("{}{lit}{}", &src[..a], &src[b..]);
    }
    let at = body_start(src, f.0);
    let marker = "\n    // edit ";
    match src[at..f.1].find(marker) {
        Some(off) => {
            let from = at + off + marker.len();
            let to = from + src[from..].find('\n').expect("comment ends its line");
            format!("{}{version}{}", &src[..from], &src[to..])
        }
        None => format!("{}{marker}{version}{}", &src[..at], &src[at..]),
    }
}

/// Injects a call to an unknown function (a coded type error) into
/// `main`, when the program has one.
fn inject_error(src: &str) -> Option<String> {
    let main = functions(src)
        .into_iter()
        .find(|(s, _)| src[*s..].starts_with("fn main("))?;
    let at = body_start(src, main.0);
    Some(format!("{}\n    frobnicate();{}", &src[..at], &src[at..]))
}

fn request_line(cmd: &str, src: &str, targets: &[&str]) -> String {
    let mut fields = vec![
        ("cmd".to_string(), Json::Str(cmd.into())),
        ("src".to_string(), Json::Str(src.into())),
    ];
    if !targets.is_empty() {
        let t = targets.iter().map(|t| Json::Str(t.to_string())).collect();
        fields.push(("targets".into(), Json::Arr(t)));
    }
    Json::Obj(fields).to_string_compact()
}

/// The `stats` response a server gives after compiling what `s` counts.
fn stats_response(s: &QueryStats) -> String {
    let counters = crate::query_counters(s)
        .into_iter()
        .map(|(kind, hits, misses)| {
            let c = Json::Obj(vec![
                ("hits".into(), Json::Num(hits as f64)),
                ("misses".into(), Json::Num(misses as f64)),
            ]);
            (kind.to_string(), c)
        })
        .collect();
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("stats".into(), Json::Obj(counters)),
    ])
    .to_string_compact()
}

/// A `serve` loop on its own thread, and the client end of its socket.
struct Server {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start() -> Server {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let server_in = server.try_clone().expect("clone socket");
        let thread = std::thread::spawn(move || {
            // Buffered like `descendc serve`'s stdin and stdout.
            serve(BufReader::new(server_in), LineWriter::new(server))
        });
        let writer = client.try_clone().expect("clone socket");
        Server {
            reader: BufReader::new(client),
            writer,
            thread,
        }
    }

    fn roundtrip(&mut self, line: &str, response: &mut String) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("server reads requests");
        response.clear();
        self.reader.read_line(response).expect("server answers");
        if response.ends_with('\n') {
            response.pop();
        }
    }

    fn stop(self) {
        self.writer
            .shutdown(std::net::Shutdown::Both)
            .expect("close socket");
        drop(self.reader);
        self.thread
            .join()
            .expect("serve thread does not panic")
            .expect("serve loop ends cleanly at end of input");
    }
}

/// The response a fresh server gives to one request line: a cold compile
/// of the same source through the same protocol.
fn cold_response(line: &str) -> String {
    let mut out = Vec::new();
    serve(format!("{line}\n").as_bytes(), &mut out).expect("in-memory serve");
    let mut text = String::from_utf8(out).expect("responses are UTF-8");
    text.pop();
    text
}

impl ServeEdit {
    /// Generates the seeded editing script and the response each request
    /// must get.
    pub fn setup(root: &Path, seed: u64, checks: &mut Checks) -> ServeEdit {
        let descend = |p: &Path| p.extension().is_some_and(|e| e == "descend");
        let mut files: Vec<String> = read_dir_sorted(&root.join("examples/descend"), descend)
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("corpus program is readable"))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut responses: HashMap<String, String> = HashMap::new();
        let mut mirror = CompileSession::new();
        let mut script = Vec::new();
        let mut version = 0u64;
        for _ in 0..VISITS_PER_FILE {
            let mut order: Vec<usize> = (0..files.len()).collect();
            shuffle(&mut rng, &mut order);
            for f in order {
                let mut buffer = files[f].clone();
                let mut actions = visit_mix(&VISIT_ACTIONS);
                let mut cmds = visit_mix(&VISIT_COMMANDS);
                shuffle(&mut rng, &mut actions);
                shuffle(&mut rng, &mut cmds);
                for (action, mut cmd) in actions.into_iter().zip(cmds) {
                    version += 1;
                    match action {
                        Action::Edit => {
                            files[f] = edit(&files[f], &mut rng, version);
                            buffer = files[f].clone();
                        }
                        Action::Error => {
                            if let Some(broken) = inject_error(&files[f]) {
                                buffer = broken;
                            }
                        }
                        Action::Resend => {}
                    }
                    if cmd == 2 && !buffer.contains("fn main(") {
                        cmd = 0;
                    }
                    let mut targets = Vec::new();
                    if cmd == 1 {
                        for _ in 0..rng.gen_range(1usize..3) {
                            let t = BACKEND_NAMES[rng.gen_range(0..BACKEND_NAMES.len())];
                            if !targets.contains(&t) {
                                targets.push(t);
                            }
                        }
                    }
                    let line = request_line(COMMANDS[cmd], &buffer, &targets);
                    let expected = responses
                        .entry(line.clone())
                        .or_insert_with(|| cold_response(&line))
                        .clone();
                    let _ = mirror.compile_source(&buffer);
                    script.push(Request {
                        cmd,
                        src: buffer.clone(),
                        line,
                        expected,
                    });
                }
            }
        }
        // The script must exercise every path it claims to.
        for (what, ok) in [
            ("an edit", script.windows(2).any(|w| w[0].src != w[1].src)),
            ("a resend", script.windows(2).any(|w| w[0].src == w[1].src)),
            (
                "a rejected source",
                script
                    .iter()
                    .any(|r| r.expected.starts_with(r#"{"ok":false"#)),
            ),
            (
                "each command",
                (0..3).all(|c| script.iter().any(|r| r.cmd == c)),
            ),
        ] {
            checks.check(ok, || format!("serve script lacks {what}"));
        }
        let stats = *mirror.stats();
        ServeEdit {
            script,
            expected_stats: stats_response(&stats),
            stats,
            per_cmd: [(0.0, 0); 3],
            compile_requests: (0.0, 0.0),
        }
    }

    /// Runs whole editing sessions until `seconds` have passed.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        let mut w = Window::default();
        let mut response = String::new();
        let start = Instant::now();
        let mut req = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let mut server = Server::start();
            let mut mirror = CompileSession::new();
            for r in &self.script {
                let root = tracer.enter("request", req);
                let t = Instant::now();
                let open = tracer.enter(request_span(r.cmd), req);
                server.roundtrip(&r.line, &mut response);
                tracer.exit(open);
                let latency = t.elapsed().as_secs_f64();
                w.latencies.push(latency);
                w.checks.check(response == r.expected, || {
                    format!("response differs from a cold compile:\n{response}")
                });
                if tracer.enabled() {
                    let t = Instant::now();
                    let open = tracer.enter("compiler.session", req);
                    let _ = mirror.compile_source(&r.src);
                    tracer.exit(open);
                    let session = t.elapsed().as_secs_f64();
                    let parsed = tracer.span("serve.json", req, || parse_json(&r.line));
                    let reply = parse_json(&response);
                    w.checks.check(parsed.is_ok() && reply.is_ok(), || {
                        "request or response is not JSON".to_string()
                    });
                    if let Ok(reply) = reply {
                        let _ = tracer.span("serve.json", req, || reply.to_string_compact());
                    }
                    let c = &mut self.per_cmd[r.cmd];
                    c.0 += latency;
                    c.1 += 1;
                    if r.cmd < 2 {
                        self.compile_requests.0 += latency;
                        self.compile_requests.1 += session;
                    }
                }
                tracer.exit(root);
                req += 1;
            }
            server.roundtrip(r#"{"cmd":"stats"}"#, &mut response);
            w.checks.check(response == self.expected_stats, || {
                format!("query counters after a session differ: {response}")
            });
            server.stop();
        }
        w
    }

    /// Per-layer metrics from the traced window.
    pub fn layers(&self, traced: &Window, t: &SelfTimes, out: &mut Layers) {
        let ops = traced.latencies.len().max(1) as f64;
        let secs = |name: &str| t.get(name).map_or(0.0, |v| v.0);
        for (cmd, (sum, n)) in COMMANDS.iter().zip(self.per_cmd) {
            out.set(&format!("serve.request_s.{cmd}"), sum / n.max(1) as f64);
        }
        out.set("serve.json_s", secs("serve.json") / ops);
        out.set("compiler.session_s", secs("compiler.session") / ops);
        let n = (self.per_cmd[0].1 + self.per_cmd[1].1).max(1) as f64;
        let (request, session) = self.compile_requests;
        out.set("serve.transport_s", (request - session) / n);
        crate::query_layers(&self.stats, out);
    }
}

fn request_span(cmd: usize) -> &'static str {
    [
        "serve.request.check",
        "serve.request.emit",
        "serve.request.profile",
    ][cmd]
}
