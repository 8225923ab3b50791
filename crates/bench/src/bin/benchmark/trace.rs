//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself is not instrumented: every span is opened and
//! closed in this benchmark's own files, around a public call (a
//! capture, a compile, a slice of `step` calls, a served request). Spans
//! stay in memory and are written out when the run ends. With tracing
//! off every method is a no-op that neither reads the clock nor locks.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use ocapi_serve::Json;

use crate::sample::{geomean, summarize};

/// One recorded interval, in seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer called into.
    pub name: &'static str,
    /// What it ran on: a design, a netlist, a job kind.
    pub detail: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Work done inside the span in the layer's unit (cycles, faults, …);
    /// 0 where the span is not a timed slice.
    pub work: f64,
    /// The request id, for spans of served requests.
    pub request: Option<String>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open or recorded span; `NONE` when tracing is off or
/// the span has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

/// Self time of one layer, summed over its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub name: &'static str,
    pub calls: usize,
    pub total: f64,
    pub self_secs: f64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn at(&self, t: Instant) -> f64 {
        (t - self.t0).as_secs_f64()
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(span);
        SpanId(Some(spans.len() - 1))
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&self, name: &'static str, detail: &str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.at(Instant::now());
        self.push(Span {
            name,
            detail: detail.to_owned(),
            start: now,
            end: now,
            parent: parent.0,
            work: 0.0,
            request: None,
        })
    }

    pub fn close(&self, id: SpanId) {
        self.close_with_work(id, 0.0);
    }

    /// Closes a span that did `work` units of work.
    pub fn close_with_work(&self, id: SpanId, work: f64) {
        if let Some(i) = id.0 {
            let now = self.at(Instant::now());
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(s) = spans.get_mut(i) {
                s.end = now;
                s.work = work;
            }
        }
    }

    /// Records an interval the caller already timed.
    pub fn record(
        &self,
        name: &'static str,
        detail: &str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        work: f64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.push(Span {
            name,
            detail: detail.to_owned(),
            start: self.at(start),
            end: self.at(end),
            parent: parent.0,
            work,
            request: None,
        })
    }

    /// Records one served request's client-side interval.
    pub fn record_request(
        &self,
        kind: &str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        request: &str,
    ) {
        if self.on {
            self.push(Span {
                name: "serve",
                detail: kind.to_owned(),
                start: self.at(start),
                end: self.at(end),
                parent: parent.0,
                work: 0.0,
                request: Some(request.to_owned()),
            });
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &self,
        name: &'static str,
        detail: &str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.record(name, detail, parent, t, Instant::now(), 0.0);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Spans named `name`, grouped by detail.
    fn by_detail(&self, name: &str) -> BTreeMap<String, Vec<Span>> {
        let mut out: BTreeMap<String, Vec<Span>> = BTreeMap::new();
        for s in self.spans().into_iter().filter(|s| s.name == name) {
            out.entry(s.detail.clone()).or_default().push(s);
        }
        out
    }

    /// Per detail, the median duration of `name`'s spans.
    pub fn medians(&self, name: &str) -> BTreeMap<String, f64> {
        self.by_detail(name)
            .into_iter()
            .map(|(d, v)| {
                let secs: Vec<f64> = v.iter().map(Span::secs).collect();
                (d, summarize(&secs).median)
            })
            .collect()
    }

    /// The sum of [`Tracer::medians`]: one build step's cost per build,
    /// summed over the workload.
    pub fn median_sum(&self, name: &str) -> f64 {
        self.medians(name).values().fold(0.0, |a, b| a + b)
    }

    /// Per detail, the median work rate of `name`'s slices.
    pub fn rates(&self, name: &str) -> BTreeMap<String, f64> {
        self.by_detail(name)
            .into_iter()
            .map(|(d, v)| {
                let rates: Vec<f64> = v
                    .iter()
                    .filter(|s| s.work > 0.0)
                    .map(|s| s.work / s.secs().max(1e-9))
                    .collect();
                (d, summarize(&rates).median)
            })
            .filter(|(_, m)| m.is_finite())
            .collect()
    }

    /// Geomean over details of [`Tracer::rates`]; 0 when the workload
    /// ran no such slice.
    pub fn rate(&self, name: &str) -> f64 {
        let medians: Vec<f64> = self.rates(name).into_values().collect();
        if medians.is_empty() {
            0.0
        } else {
            geomean(&medians)
        }
    }

    /// Per layer: calls, total time, and self time — a span's duration
    /// minus the part of it its children cover (children of one span
    /// may overlap when they ran on different threads).
    pub fn self_times(&self) -> Vec<LayerTime> {
        let spans = self.spans();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let l = layers.entry(s.name).or_insert(LayerTime {
                name: s.name,
                calls: 0,
                total: 0.0,
                self_secs: 0.0,
            });
            l.calls += 1;
            l.total += s.secs();
            l.self_secs += s.secs() - covered;
        }
        let mut out: Vec<LayerTime> = layers.into_values().collect();
        out.sort_by(|a, b| b.self_secs.total_cmp(&a.self_secs));
        out
    }

    /// The self-time table, one row per layer.
    pub fn table(&self) -> String {
        let rows = self.self_times();
        let all: f64 = rows.iter().map(|r| r.self_secs).sum();
        let mut out = format!(
            "{:<14} {:>9} {:>11} {:>11} {:>7}\n",
            "layer", "calls", "total s", "self s", "self %"
        );
        for r in rows {
            out.push_str(&format!(
                "{:<14} {:>9} {:>11.4} {:>11.4} {:>6.1}%\n",
                r.name,
                r.calls,
                r.total,
                r.self_secs,
                100.0 * r.self_secs / all.max(1e-12)
            ));
        }
        out
    }

    /// Every span as JSON: `{"spans":[{id,name,detail,start_s,end_s,parent,…}]}`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = vec![
                    ("id".to_owned(), Json::Num(i as f64)),
                    ("name".to_owned(), Json::Str(s.name.to_owned())),
                    ("detail".to_owned(), Json::Str(s.detail)),
                    ("start_s".to_owned(), Json::Num(s.start)),
                    ("end_s".to_owned(), Json::Num(s.end)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ];
                if s.work > 0.0 {
                    o.push(("work".to_owned(), Json::Num(s.work)));
                }
                if let Some(r) = s.request {
                    o.push(("request".to_owned(), Json::Str(r)));
                }
                Json::Obj(o)
            })
            .collect();
        Json::Obj(vec![("spans".to_owned(), Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", "", SpanId::NONE);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(t.time("y", "", id, || 3), 3);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", "", SpanId::NONE, at(0), at(100), 0.0);
        // Two overlapping children (as from two threads) cover 10..60.
        t.record("kid", "a", root, at(10), at(50), 0.0);
        t.record("kid", "b", root, at(30), at(60), 0.0);
        let rows = t.self_times();
        let root_row = rows.iter().find(|r| r.name == "root").unwrap();
        assert!((root_row.self_secs - 0.050).abs() < 1e-9);
        let kid = rows.iter().find(|r| r.name == "kid").unwrap();
        assert_eq!(kid.calls, 2);
        assert!((kid.self_secs - 0.070).abs() < 1e-9);
        assert!(t.table().contains("root"));
    }

    #[test]
    fn per_detail_medians_and_rates() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        for (d, ms) in [("a", 10), ("a", 30), ("a", 20), ("b", 5)] {
            t.record("build", d, SpanId::NONE, at(0), at(ms), 0.0);
        }
        assert!((t.median_sum("build") - 0.025).abs() < 1e-9);
        // 100 cycles in 10 ms and 400 in 10 ms: geomean 20 000 cycles/s.
        t.record("sim", "a", SpanId::NONE, at(0), at(10), 100.0);
        t.record("sim", "b", SpanId::NONE, at(0), at(10), 400.0);
        assert!((t.rate("sim") - 20_000.0).abs() < 1e-6);
        assert_eq!(t.rate("absent"), 0.0);
    }

    #[test]
    fn json_carries_parent_work_and_request() {
        let t = Tracer::new(true);
        let p = t.open("serve.load", "", SpanId::NONE);
        let now = Instant::now();
        t.record_request("campaign", p, now, now, "j7");
        t.close(p);
        let text = t.to_json().to_string();
        assert!(
            text.contains(r#""name":"serve","detail":"campaign""#),
            "{text}"
        );
        assert!(text.contains(r#""parent":0"#));
        assert!(text.contains(r#""request":"j7""#));
    }
}
