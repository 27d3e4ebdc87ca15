//! In-memory span recording for the traced run.
//!
//! Spans are recorded only from this benchmark's own code, around calls
//! into the library's public functions: the library itself is timed
//! from the outside and never changed. A span is (name, start, end,
//! parent); the per-layer metrics are derived from the recorded spans,
//! and the whole list is written out once the run has finished.

use rootcast::engine::SimWorld;
use rootcast::{SimTime, Subsystem};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans; the parent of a new span is the innermost
/// span still open.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{}\n",
                span.name,
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        s.push(']');
        s
    }
}

pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Time `f` as a span called `name`.
pub fn span<R>(rec: &SharedRecorder, name: &str, f: impl FnOnce() -> R) -> R {
    let id = rec.borrow_mut().begin(name);
    let out = f();
    rec.borrow_mut().end(id);
    out
}

/// A production subsystem with every `tick` and its `finish` recorded as
/// spans `engine.<name>.tick` and `engine.<name>.finish`.
pub struct Timed {
    inner: Box<dyn Subsystem>,
    tick_span: String,
    finish_span: String,
    rec: SharedRecorder,
}

impl Timed {
    pub fn boxed(inner: Box<dyn Subsystem>, rec: &SharedRecorder) -> Box<dyn Subsystem> {
        let name = inner.name();
        Box::new(Timed {
            inner,
            tick_span: format!("engine.{name}.tick"),
            finish_span: format!("engine.{name}.finish"),
            rec: Rc::clone(rec),
        })
    }
}

impl Subsystem for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        self.inner.initial_wakeups()
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let id = self.rec.borrow_mut().begin(&self.tick_span);
        let wakeups = self.inner.tick(world, t);
        self.rec.borrow_mut().end(id);
        wakeups
    }

    fn finish(&mut self, world: &mut SimWorld) {
        let id = self.rec.borrow_mut().begin(&self.finish_span);
        self.inner.finish(world);
        self.rec.borrow_mut().end(id);
    }
}
