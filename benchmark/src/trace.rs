//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public functions
//! in a span (name, start, end, parent, request id). Span names are
//! `<layer>.<operation>`; the part before the dot names the layer. Spans are
//! kept in memory and written out when the run ends. When tracing is off a
//! span costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Request (or operation) number the span belongs to.
    pub request: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder; disabled recorders record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Reserves a span id, for a parent whose end is recorded after its
    /// children (0 when off).
    pub fn reserve(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span over an interval the caller measured, under an id from
    /// [`reserve`](Self::reserve).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span { id, parent, request, name, start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("a span recorder user panicked").push(span);
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent children on.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder user panicked").clone()
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a span recorder user panicked")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
/// Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Span count and total self time (ns) per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64)> {
    let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.layer()).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    out
}

/// One JSON object per line: every span with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
