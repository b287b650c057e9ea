//! The benchmark's own span recorder: one preallocated buffer per rank,
//! filled around the calls into each layer's public functions and written
//! out only after the run.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// What a training step does to the curvature state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Preconditions with cached factors and eigendecompositions.
    Plain,
    /// Also captures and reduces factor statistics.
    Factor,
    /// Also recomputes the eigendecompositions.
    Inverse,
}

impl StepKind {
    /// Classify the upcoming step from `Kfac::is_factor_update_step` /
    /// `Kfac::is_inv_update_step`; an inverse step outranks a factor step.
    pub fn of(factor_update: bool, inv_update: bool) -> StepKind {
        if inv_update {
            StepKind::Inverse
        } else if factor_update {
            StepKind::Factor
        } else {
            StepKind::Plain
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StepKind::Plain => "plain",
            StepKind::Factor => "factor",
            StepKind::Inverse => "inverse",
        }
    }
}

/// The layer a child span of a step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// `Dataset::batch`.
    Batch = 0,
    /// `Model::forward_backward`.
    FwdBwd = 1,
    /// `trainer::allreduce_gradients`.
    Ddp = 2,
    /// `Kfac::step`.
    Kfac = 3,
    /// `Optimizer::step`.
    Optim = 4,
}

/// Number of [`Part`]s.
pub const PARTS: usize = 5;

impl Part {
    pub fn name(self) -> &'static str {
        ["data.batch", "nn.fwd_bwd", "trainer.ddp_allreduce", "core.kfac_step", "optim.step"]
            [self as usize]
    }
}

/// `parent` of a step span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. A step span has `part == None` and no parent; its
/// children carry the index of their step span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub part: Option<Part>,
    pub rank: u32,
    pub step: u32,
    pub kind: StepKind,
    /// Seconds since the phase epoch shared by all ranks.
    pub t0: f64,
    pub t1: f64,
    pub parent: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Per-rank span buffer. Sized up front so recording never allocates inside
/// a timed step.
pub struct Recorder {
    epoch: Instant,
    rank: u32,
    spans: Vec<Span>,
    open: u32,
}

impl Recorder {
    pub fn new(epoch: Instant, rank: usize, capacity: usize) -> Self {
        Recorder { epoch, rank: rank as u32, spans: Vec::with_capacity(capacity), open: NO_PARENT }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open the span of step `step`; child spans attach to it until
    /// [`Recorder::end_step`].
    pub fn begin_step(&mut self, step: usize, kind: StepKind) {
        let t0 = self.now();
        self.open = self.spans.len() as u32;
        self.spans.push(Span {
            part: None,
            rank: self.rank,
            step: step as u32,
            kind,
            t0,
            t1: t0,
            parent: NO_PARENT,
        });
    }

    /// Time `f` as a child of the open step.
    pub fn span<T>(&mut self, part: Part, f: impl FnOnce() -> T) -> T {
        let parent = self.spans[self.open as usize];
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.spans.push(Span { part: Some(part), t0, t1, parent: self.open, ..parent });
        out
    }

    pub fn end_step(&mut self) {
        let t1 = self.now();
        self.spans[self.open as usize].t1 = t1;
        self.open = NO_PARENT;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One step of one rank, reduced to its wall time and per-layer child time.
#[derive(Debug, Clone, Copy)]
pub struct StepParts {
    pub step: u32,
    pub kind: StepKind,
    pub wall: f64,
    pub parts: [f64; PARTS],
    /// Interval of the DDP allreduce span, for the cross-rank wait split.
    pub ddp: (f64, f64),
}

impl StepParts {
    /// Self time of the step span: its duration minus what its children cover
    /// (`prepare`, `zero_grad` and the flat-vector copies of the step body).
    pub fn self_time(&self) -> f64 {
        self.wall - self.parts.iter().sum::<f64>()
    }
}

/// Fold one rank's spans into per-step records, in recording order.
pub fn step_parts(spans: &[Span]) -> Vec<StepParts> {
    let mut steps: Vec<StepParts> = Vec::new();
    let mut index_of = vec![usize::MAX; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        match span.part {
            None => {
                index_of[i] = steps.len();
                steps.push(StepParts {
                    step: span.step,
                    kind: span.kind,
                    wall: span.seconds(),
                    parts: [0.0; PARTS],
                    ddp: (0.0, 0.0),
                });
            }
            Some(part) => {
                let step = &mut steps[index_of[span.parent as usize]];
                step.parts[part as usize] += span.seconds();
                if part == Part::Ddp {
                    step.ddp = (span.t0, span.t1);
                }
            }
        }
    }
    steps
}

/// Share of a step's wall time that its child spans account for, as the
/// median over the steps: a step that lost its core between two spans says
/// nothing about whether the spans cover the step body.
pub fn parts_share(steps: &[StepParts]) -> f64 {
    let shares: Vec<f64> =
        steps.iter().filter(|s| s.wall > 0.0).map(|s| 1.0 - s.self_time() / s.wall).collect();
    median(&shares)
}

/// Render spans as Chrome-trace JSON (`chrome://tracing`, Perfetto): one
/// complete event per span, one thread row per rank.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = s.part.map_or("trainer.step", Part::name);
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"step\":{},\"kind\":\"{}\"}}}}",
            s.rank,
            s.t0 * 1e6,
            s.seconds() * 1e6,
            s.step,
            s.kind.name()
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(part: Option<Part>, step: u32, t0: f64, t1: f64, parent: u32) -> Span {
        Span { part, rank: 0, step, kind: StepKind::Plain, t0, t1, parent }
    }

    #[test]
    fn step_kind_classification() {
        assert_eq!(StepKind::of(false, false), StepKind::Plain);
        assert_eq!(StepKind::of(true, false), StepKind::Factor);
        assert_eq!(StepKind::of(true, true), StepKind::Inverse);
        // An inverse update outranks the factor flag whatever it says.
        assert_eq!(StepKind::of(false, true), StepKind::Inverse);
    }

    #[test]
    fn self_time_is_span_minus_children_and_parts_share_is_the_median_step() {
        let spans = [
            span(None, 0, 0.0, 10.0, NO_PARENT),
            span(Some(Part::Batch), 0, 0.5, 1.0, 0),
            span(Some(Part::FwdBwd), 0, 1.0, 5.0, 0),
            span(Some(Part::FwdBwd), 0, 5.0, 7.0, 0),
            span(Some(Part::Ddp), 0, 7.0, 8.0, 0),
            span(None, 1, 10.0, 14.0, NO_PARENT),
            span(Some(Part::Kfac), 1, 10.0, 13.0, 5),
        ];
        let steps = step_parts(&spans);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].parts[Part::FwdBwd as usize], 6.0);
        assert_eq!(steps[0].ddp, (7.0, 8.0));
        assert!((steps[0].self_time() - 2.5).abs() < 1e-12);
        assert!((steps[1].self_time() - 1.0).abs() < 1e-12);
        // 7.5 / 10 and 3 / 4; a third step that sat descheduled for as long
        // as the others ran does not move the median.
        assert!((parts_share(&steps) - 0.75).abs() < 1e-12);
        let stalled = StepParts { wall: 28.0, ..steps[1] };
        assert!((parts_share(&[steps[0], steps[1], stalled]) - 0.75).abs() < 1e-12);
        assert_eq!(parts_share(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_children_under_the_open_step() {
        let mut rec = Recorder::new(Instant::now(), 1, 8);
        rec.begin_step(7, StepKind::Factor);
        let v = rec.span(Part::Optim, || 42);
        rec.end_step();
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].step, spans[1].rank), (0, 7, 1));
        assert_eq!(spans[1].kind, StepKind::Factor);
        assert!(spans[0].t0 <= spans[1].t0 && spans[1].t1 <= spans[0].t1);
        let json = chrome_trace(&spans);
        assert!(json.contains("\"name\":\"optim.step\"") && json.contains("\"kind\":\"factor\""));
    }
}
