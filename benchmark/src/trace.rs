//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer, keeps the spans in memory and writes them out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `req`; `parent` is the
/// span that caused this one (`None` for the request's root).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub req: u32,
    pub span: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread: spans nest by call order.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_req: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; with none open this
    /// starts a new request and the span is its root.
    pub fn enter(&mut self, name: &'static str) {
        let (req, parent) = match self.open.last() {
            Some(&p) => (self.spans[p].req, Some(self.spans[p].span)),
            None => {
                self.next_req += 1;
                (self.next_req - 1, None)
            }
        };
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            req,
            span: self.spans.len() as u32,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| index.get(&p)) {
            covered[*p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Share of the root spans' time that their direct children account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut root_total, mut root_self) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            root_total += s.duration_ns();
            root_self += own;
        }
    }
    if root_total == 0 {
        return f64::NAN;
    }
    1.0 - root_self as f64 / root_total as f64
}

/// For each request, the summed self time in milliseconds of the spans
/// called `name` (zero where a request has none).
pub fn self_ms_per_request(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times_ns(spans);
    let mut per_req: BTreeMap<u32, u64> = spans.iter().map(|s| (s.req, 0)).collect();
    for (s, own) in spans.iter().zip(selfs) {
        if s.name == name {
            *per_req.get_mut(&s.req).expect("seeded above") += own;
        }
    }
    per_req.into_values().map(|ns| ns as f64 / 1e6).collect()
}

/// The spans of the requests whose root span's name starts with `prefix`.
pub fn requests_rooted(spans: &[Span], prefix: &str) -> Vec<Span> {
    let roots: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with(prefix))
        .map(|s| s.req)
        .collect();
    spans
        .iter()
        .filter(|s| roots.contains(&s.req))
        .cloned()
        .collect()
}

/// Duration in milliseconds of each request's root span.
pub fn root_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Writes one JSON object per span, then one per count, to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span], counts: &[(String, f64)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"req\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.req, s.span, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (name, value) in counts {
        writeln!(out, "{{\"count\": \"{name}\", \"value\": {value}}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        req: u32,
        span: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            req,
            span,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 0, None, "request", 0, 100),
            span(0, 1, Some(0), "intern", 10, 40),
            span(0, 2, Some(0), "build", 40, 90),
            span(0, 3, Some(2), "reduce", 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
        // Children cover 80 of the root's 100.
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
        assert_eq!(self_ms_per_request(&spans, "build"), vec![30.0 / 1e6]);
        assert_eq!(root_ms(&spans), vec![100.0 / 1e6]);
    }

    #[test]
    fn requests_are_kept_apart() {
        let spans = vec![
            span(0, 0, None, "request", 0, 10),
            span(0, 1, Some(0), "intern", 0, 4),
            span(1, 2, None, "request", 10, 30),
            span(1, 3, Some(2), "intern", 10, 16),
            span(1, 4, Some(2), "intern", 16, 18),
        ];
        assert_eq!(
            self_ms_per_request(&spans, "intern"),
            vec![4.0 / 1e6, 8.0 / 1e6]
        );
        assert_eq!(self_ms_per_request(&spans, "absent"), vec![0.0, 0.0]);
        assert_eq!(requests_rooted(&spans, "req"), spans);
        assert!(requests_rooted(&spans, "round").is_empty());
    }

    #[test]
    fn the_recorder_nests_by_call_order() {
        let mut t = Tracer::new();
        t.enter("request");
        t.leaf("a", || ());
        t.enter("b");
        t.leaf("c", || ());
        t.exit();
        t.exit();
        t.leaf("request", || ());
        let got: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.req, s.span, s.parent, s.name))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, None, "request"),
                (0, 1, Some(0), "a"),
                (0, 2, Some(0), "b"),
                (0, 3, Some(2), "c"),
                (1, 4, None, "request"),
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
