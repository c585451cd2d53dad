//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions; nothing inside the measured crates is
//! instrumented. Spans stay in memory and are written out once the run
//! ends, so recording costs a clock read and a vector push.

use descend_compiler::server::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `parser.parse`.
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (compile, request or program execution) the span
    /// belongs to; every span of one operation shares it.
    pub request: u64,
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: impl Into<Cow<'static, str>>, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close in the reverse order they opened.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total self time (seconds) and span count per span name.
pub type SelfTimes = BTreeMap<String, (f64, u64)>;

/// Checks that the span tree is well formed (every span closed, children
/// inside their parents and non-overlapping) and sums each name's self
/// time: a span's duration minus the part its children cover.
///
/// # Errors
///
/// A description of the first malformed span.
pub fn self_times(spans: &[Span]) -> Result<SelfTimes, String> {
    let mut covered = vec![0u64; spans.len()];
    let mut last_child_end: Vec<Option<u64>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} `{}` has a bad parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} `{}` lies outside its parent `{}`",
                    s.name, parent.name
                ));
            }
            if last_child_end[p].is_some_and(|end| s.start_ns < end) {
                return Err(format!("span {i} `{}` overlaps a sibling", s.name));
            }
            last_child_end[p] = Some(s.end_ns);
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = SelfTimes::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = (s.end_ns - s.start_ns)
            .checked_sub(covered[i])
            .ok_or_else(|| format!("span {i} `{}` has negative self time", s.name))?;
        let entry = out.entry(s.name.to_string()).or_insert((0.0, 0));
        entry.0 += self_ns as f64 * 1e-9;
        entry.1 += 1;
    }
    Ok(out)
}

/// The spans as JSON lines, one object per span, in recording order.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
        let obj = Json::Obj(vec![
            ("name".into(), Json::Str(s.name.to_string())),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ("parent".into(), parent),
            ("request".into(), Json::Num(s.request as f64)),
        ]);
        out.push_str(&obj.to_string_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
        ];
        let t = self_times(&spans).expect("well formed");
        assert!((t["root"].0 - 30e-9).abs() < 1e-15);
        assert!((t["b"].0 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let outside = [span("root", 0, 10, None), span("a", 5, 20, Some(0))];
        assert!(self_times(&outside).is_err());
        let overlap = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
        ];
        assert!(self_times(&overlap).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
