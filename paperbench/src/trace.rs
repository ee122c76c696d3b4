//! In-memory spans around the calls into each layer.
//!
//! The traced run wraps every call a pass makes into a library crate in a
//! span `{name, detail, start_ns, end_ns, parent, pass, count}`. Spans are
//! kept in memory and written out once, when the run ends. A layer's
//! **self time** is its span minus the part its child spans cover. With
//! tracing off ([`Tracer::off`]) `begin`/`end` read no clock and store
//! nothing, so the end-to-end passes pay one predictable branch per call.

use dynsched_simkit::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module.call`), e.g. `scheduler.engine.run`.
    pub name: &'static str,
    /// What the call worked on, e.g. `CTC SP2/WFP/actual/none`.
    pub detail: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced pass the span belongs to.
    pub pass: u32,
    /// Work done inside the span (events, trials, cells, bytes…).
    pub count: u64,
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has no duration"]
pub struct SpanId(usize);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next traced pass: spans recorded from now on carry the
    /// next pass index.
    pub fn next_pass(&mut self) {
        if !self.spans.is_empty() {
            self.pass += 1;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            detail: String::new(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
            count: 0,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is charged to the
        // parent, not to this span.
        self.spans[id].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Close `span`, noting what it worked on and how much work it did.
    pub fn end(&mut self, span: SpanId, detail: &str, count: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(span.0), "spans must close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        s.detail.push_str(detail);
        s.count = count;
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Index of the traced pass whose top-level spans took the least time.
    pub fn fastest_pass(&self) -> u32 {
        let passes = self.spans.last().map_or(0, |s| s.pass + 1) as usize;
        let mut wall_ns = vec![0u64; passes];
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            wall_ns[s.pass as usize] += s.end_ns - s.start_ns;
        }
        (0..passes).min_by_key(|&p| wall_ns[p]).unwrap_or(0) as u32
    }

    /// Per span name: total self time (seconds) and total count within the
    /// **fastest** traced pass — the pass whose top-level spans took the
    /// least time. Interference on a shared host only ever adds time, so
    /// the fastest pass is the one closest to what the code costs, and
    /// taking all layers from one pass makes them add up to its wall time.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let fastest = self.fastest_pass();
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if s.pass == fastest {
                let total = totals.entry(s.name).or_insert(LayerTotal {
                    self_s: 0.0,
                    count: 0,
                });
                total.self_s += own_ns as f64 / 1e9;
                total.count += s.count;
            }
        }
        totals
    }

    /// The trace as JSON: every span, plus the per-layer roll-up.
    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own_ns)| {
                Json::Object(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("detail".into(), Json::Str(s.detail.clone())),
                    ("workload".into(), Json::Str(workload.into())),
                    ("pass".into(), Json::Uint(s.pass as u64)),
                    ("start_ns".into(), Json::Uint(s.start_ns)),
                    ("end_ns".into(), Json::Uint(s.end_ns)),
                    ("self_ns".into(), Json::Uint(own_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
                    ),
                    ("count".into(), Json::Uint(s.count)),
                ])
            })
            .collect();
        let layers = self
            .layer_totals()
            .into_iter()
            .map(|(name, total)| {
                (
                    name.to_string(),
                    Json::Object(vec![
                        ("self_s".into(), Json::F64(total.self_s)),
                        ("count".into(), Json::Uint(total.count)),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::Str(workload.into())),
            (
                "fastest_pass".into(),
                Json::Uint(self.fastest_pass() as u64),
            ),
            ("layers".into(), Json::Object(layers)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

/// One layer's share of a traced pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTotal {
    /// The layer's total self time in the fastest traced pass.
    pub self_s: f64,
    /// Total count of the layer's spans in that pass.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::on();
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner, "x", 3);
        tr.end(outer, "", 0);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = tr.self_times_ns();
        let outer_dur = spans[0].end_ns - spans[0].start_ns;
        let inner_dur = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(own[0], outer_dur - inner_dur);
        assert_eq!(own[1], inner_dur);
        assert!(inner_dur >= 2_000_000);
        assert_eq!(tr.layer_totals()["inner"].count, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin("x");
        tr.end(s, "detail", 1);
        assert!(tr.spans().is_empty());
    }
}
