//! The ledger's own span recorder. Spans are opened around the calls
//! the ledger makes into each crate's public functions, so the crates
//! carry no instrumentation for it; they are kept in memory and written
//! out when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers of the system: one per crate, plus the ledger's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `adarnet-tensor`.
    Tensor,
    /// `adarnet-nn`.
    Nn,
    /// `adarnet-amr`.
    Amr,
    /// `adarnet-cfd`.
    Cfd,
    /// `adarnet-dataset`.
    Dataset,
    /// `adarnet-core`.
    Core,
    /// `adarnet-serve`.
    Serve,
    /// `adarnet-net`.
    Net,
    /// `adarnet-obs`.
    Obs,
    /// Time inside an operation that no call into a crate covers.
    Ledger,
}

impl Layer {
    /// Every crate layer, in dependency order.
    pub const CRATES: [Layer; 9] = [
        Layer::Tensor,
        Layer::Nn,
        Layer::Amr,
        Layer::Cfd,
        Layer::Dataset,
        Layer::Core,
        Layer::Serve,
        Layer::Net,
        Layer::Obs,
    ];

    /// Crate name without the `adarnet-` prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tensor => "tensor",
            Layer::Nn => "nn",
            Layer::Amr => "amr",
            Layer::Cfd => "cfd",
            Layer::Dataset => "dataset",
            Layer::Core => "core",
            Layer::Serve => "serve",
            Layer::Net => "net",
            Layer::Obs => "obs",
            Layer::Ledger => "ledger",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name (the function called).
    pub name: &'static str,
    /// Crate the call went into.
    pub layer: Layer,
    /// Nanoseconds from the recorder's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's start.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
    /// Counts read at this boundary (patches decoded, iterations, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// A count attached to this span.
    pub fn count(&self, key: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Single-threaded span recorder. When built with
/// [`Recorder::off`] every call runs its closure and records nothing,
/// which is how the same replay code measures its own tracing overhead.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recording recorder.
    pub fn on() -> Recorder {
        Recorder {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` may open child spans.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            counts: Vec::new(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Run `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.scope(name, layer, |_| f())
    }

    /// Run one operation: a root span under a fresh operation id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op += 1;
        self.scope(name, Layer::Ledger, f)
    }

    /// Record a span from timestamps taken elsewhere (seconds from any
    /// common origin), for work that crosses threads. Returns its index
    /// for use as a parent.
    pub fn record_raw(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_s: f64,
        end_s: f64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start_ns: (start_s * 1e9) as u64,
            end_ns: (end_s.max(start_s) * 1e9) as u64,
            parent,
            op,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&idx) = self.stack.last() {
            self.spans[idx].counts.push((key, value));
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Summed self time per layer, ns.
    pub fn self_by_layer(&self) -> BTreeMap<Layer, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.layer).or_insert(0) += own;
        }
        out
    }

    /// Summed self time and call count per stage name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(span.name).or_insert((0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Summed duration of the root spans (the traced operation time), ns.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Sum of one count over all spans named `name`.
    pub fn count_sum(&self, name: &str, key: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .sum()
    }

    /// The spans named `name` whose count `key` equals `value`.
    pub fn spans_where<'a>(
        &'a self,
        name: &'a str,
        key: &'a str,
        value: u64,
    ) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| {
            s.name == name && s.counts.iter().any(|(k, v)| *k == key && *v == value)
        })
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.parent.map_or_else(|| String::from("null"), |p| p.to_string()),
                s.op
            ));
            for (k, v) in &s.counts {
                out.push_str(&format!(",\"{k}\":{v}"));
            }
            out.push('}');
        }
        out.push_str("\n]");
        out
    }
}
