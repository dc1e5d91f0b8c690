//! The per-thread frame stack every probe pushes on, and its
//! always-on readers: failure provenance and the flight recorder.
//!
//! [`judgement_span`](crate::judgement_span) and [`enter`] push
//! judgement frames, [`stage`](crate::stage) stage frames,
//! [`span`](crate::span) span frames and [`trace_span`](crate::trace_span)
//! trace frames. A frame records its name, its kind, and a start
//! instant when something times it. Dropping the one guard type,
//! [`Guard`], pops the frame and does what its kind asks: a judgement
//! frame logs its exit in the recorder; a span-carrying frame (span
//! frames, and stage and judgement frames in profile mode) becomes a
//! [`Span`] under the nearest span-carrying frame below it; a stage
//! frame charges its exclusive time to its counters and its whole time
//! to the nearest enclosing stage. The views read the same stack:
//!
//! * **Provenance** — [`record_failure`] snapshots the open judgement
//!   frames (the outermost [`FRAME_CAP`]) when a structured error is
//!   *constructed*, before `?` unwinds the guards; [`note_step`] adds
//!   equation-path steps as it bubbles out; [`take_failure`] hands the
//!   snapshot over.
//! * **Flight recorder** — a ring of recent judgement enter/exit,
//!   limit and failure events, with sequence numbers and the judgement
//!   depth, dumped into a crash bundle on a limit/internal exit.
//! * **Trace indentation** is the number of open trace frames.
//!
//! Outside profile mode a judgement costs a thread-local push/pop and
//! two ring writes: no clock, no allocation beyond the stack's growth,
//! and no counters (so the S14 cost model is untouched).

use std::cell::RefCell;
use std::time::Instant;

use crate::Span;

/// Provenance snapshots keep the *outermost* `FRAME_CAP` judgement
/// frames, which is where the human-meaningful context lives; deeper
/// frames are counted by [`frame_depth`] but not snapshotted.
pub const FRAME_CAP: usize = 64;

/// Equation-path steps beyond this are dropped (deep spines would
/// otherwise make a single diagnostic unbounded).
pub const EQUATION_CAP: usize = 32;

/// Capacity of the flight-recorder ring, per thread.
pub const RECORDER_CAP: usize = 256;

/// What an event in the flight recorder describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A judgement frame was entered.
    Enter,
    /// A judgement frame was exited.
    Exit,
    /// A resource limit fired (`name` is the stage, detail the kind).
    Limit,
    /// A structured error was constructed (`name` is the innermost
    /// snapshotted frame at that instant, or `"<top>"` outside any).
    Failure,
}

impl EventKind {
    /// Stable lowercase label for JSON emission.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Limit => "limit",
            EventKind::Failure => "failure",
        }
    }
}

/// One flight-recorder entry. Sequence numbers are per-thread and
/// monotonic, so gaps in a dumped tail reveal how much history the ring
/// has already overwritten.
#[derive(Debug, Clone, Copy)]
pub struct RecorderEvent {
    /// Monotonic per-thread sequence number (0-based).
    pub seq: u64,
    /// Event class.
    pub kind: EventKind,
    /// Judgement or stage name.
    pub name: &'static str,
    /// Judgement depth when the event fired (after a push / before a
    /// pop).
    pub depth: u32,
}

/// The provenance snapshot taken when a structured error was built.
#[derive(Debug, Clone, Default)]
pub struct Failure {
    /// Active judgement frames, outermost first.
    pub frames: Vec<&'static str>,
    /// For constructor-equivalence failures: the path from the failing
    /// equation outward (innermost step first), e.g.
    /// `["domain", "unroll", "snd"]`.
    pub equation: Vec<&'static str>,
}

/// What a frame was pushed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    Judgement,
    Stage,
    Span,
    Trace,
}

/// One open frame. The timing sits behind a box so that untimed frames,
/// which every judgement outside profile mode pushes, stay small: their
/// push and pop are most of the stack's traffic.
struct Frame {
    name: &'static str,
    kind: FrameKind,
    timing: Option<Box<Timing>>,
}

/// What a timed frame keeps.
struct Timing {
    /// When the frame opened.
    start: Instant,
    /// Completed child spans; `Some` exactly when the frame closes into
    /// a [`Span`] of its own.
    children: Option<Vec<Span>>,
    /// Stage frames: wall-clock nanoseconds claimed by nested stages.
    child_nanos: u64,
}

/// The slot value before any event lands in it (never exposed: the
/// readers only hand out the `min(seq, RECORDER_CAP)` written slots).
const EMPTY_EVENT: RecorderEvent = RecorderEvent {
    seq: 0,
    kind: EventKind::Enter,
    name: "",
    depth: 0,
};

struct State {
    frames: Vec<Frame>,
    /// Open frames per kind, indexed by `FrameKind as usize`.
    depth: [usize; 4],
    pending: Option<Failure>,
    /// Fixed-slot ring (a plain array store per event — this sits on
    /// every judgement entry/exit, so no `Vec` length bookkeeping).
    ring: [RecorderEvent; RECORDER_CAP],
    /// Next sequence number; `ring[seq % RECORDER_CAP]` is the slot.
    seq: u64,
}

impl State {
    const fn new() -> Self {
        State {
            frames: Vec::new(),
            depth: [0; 4],
            pending: None,
            ring: [EMPTY_EVENT; RECORDER_CAP],
            seq: 0,
        }
    }

    #[inline]
    fn record(&mut self, kind: EventKind, name: &'static str) {
        let depth = self.depth[FrameKind::Judgement as usize].min(u32::MAX as usize) as u32;
        // RECORDER_CAP is a power of two, so the modulo is a mask.
        let slot = (self.seq % RECORDER_CAP as u64) as usize;
        self.ring[slot] = RecorderEvent {
            seq: self.seq,
            kind,
            name,
            depth,
        };
        self.seq += 1;
    }

    /// The open judgement frames that provenance snapshots, outermost
    /// first.
    fn judgements(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.frames
            .iter()
            .filter(|f| f.kind == FrameKind::Judgement)
            .map(|f| f.name)
            .take(FRAME_CAP)
    }

    /// Pops the top frame and closes it as its kind asks.
    #[inline]
    fn close(&mut self) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        if frame.kind == FrameKind::Judgement {
            self.record(EventKind::Exit, frame.name);
        }
        self.depth[frame.kind as usize] -= 1;
        if let Some(timing) = frame.timing {
            self.close_timed(frame.name, frame.kind, *timing);
        }
    }

    /// The part of [`State::close`] only timed frames reach.
    fn close_timed(&mut self, name: &'static str, kind: FrameKind, timing: Timing) {
        if kind == FrameKind::Stage {
            let elapsed = timing.start.elapsed().as_nanos() as u64;
            let outer = self
                .frames
                .iter_mut()
                .rev()
                .find(|f| f.kind == FrameKind::Stage);
            if let Some(outer) = outer.and_then(|f| f.timing.as_mut()) {
                outer.child_nanos += elapsed;
            }
            crate::charge_stage(name, elapsed.saturating_sub(timing.child_nanos));
        }
        if let Some(children) = timing.children {
            let parent = self
                .frames
                .iter_mut()
                .rev()
                .find_map(|f| f.timing.as_mut()?.children.as_mut());
            crate::close_span(name, timing.start, children, parent);
        }
    }
}

thread_local! {
    static STATE: RefCell<State> = const { RefCell::new(State::new()) };
}

#[inline]
fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    STATE.with(|d| d.try_borrow_mut().ok().map(|mut s| f(&mut s)))
}

/// Guard for one frame of the probe stack; pops the frame and closes
/// it (see the [module docs](self)) when dropped. Every probe returns
/// one; a probe whose view is switched off returns an inert guard that
/// pushed nothing.
#[derive(Debug)]
#[must_use = "the frame stays open until the guard drops"]
pub struct Guard {
    pub(crate) open: bool,
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.open {
            with_state(State::close);
        }
    }
}

/// Pushes a frame of `kind`; with `span` it closes into a [`Span`].
/// Stage frames and span-carrying frames read the clock now.
#[inline]
pub(crate) fn open(name: &'static str, kind: FrameKind, span: bool) -> Guard {
    let pushed = with_state(|s| {
        s.depth[kind as usize] += 1;
        if kind == FrameKind::Judgement {
            s.record(EventKind::Enter, name);
        }
        s.frames.push(Frame {
            name,
            kind,
            timing: (span || kind == FrameKind::Stage).then(|| {
                Box::new(Timing {
                    start: Instant::now(),
                    children: span.then(Vec::new),
                    child_nanos: 0,
                })
            }),
        });
    });
    Guard {
        open: pushed.is_some(),
    }
}

/// The number of open frames of `kind`.
pub(crate) fn depth(kind: FrameKind) -> usize {
    with_state(|s| s.depth[kind as usize]).unwrap_or(0)
}

/// Takes the span out of every open span-carrying frame, innermost
/// first, handing over its name, start and children; the frames stay
/// open but no longer close into spans. Used when a sink is uninstalled
/// inside guards.
pub(crate) fn take_open_spans(mut f: impl FnMut(&'static str, Instant, Vec<Span>)) {
    with_state(|s| {
        for frame in s.frames.iter_mut().rev() {
            if let Some(t) = frame.timing.as_mut() {
                if let Some(children) = t.children.take() {
                    f(frame.name, t.start, children);
                }
            }
        }
    });
}

/// Pushes a judgement frame outside any timed probe and logs an `Enter`
/// event. Always on — this is what makes failure provenance available
/// without `--profile`.
#[inline]
pub fn enter(name: &'static str) -> Guard {
    open(name, FrameKind::Judgement, false)
}

/// The number of open judgement frames (including those deeper than
/// [`FRAME_CAP`]).
pub fn frame_depth() -> usize {
    depth(FrameKind::Judgement)
}

/// A snapshot of the open judgement frames, outermost first.
pub fn current_frames() -> Vec<&'static str> {
    with_state(|s| s.judgements().collect()).unwrap_or_default()
}

/// Snapshots the open judgement frames as the pending failure. Call at the
/// instant a structured error is constructed — by the time the error
/// has propagated out, the guards have already popped. A later call
/// overwrites an earlier one (errors wrapped on the way out are
/// shallower and closer to what the user sees), and logs a `Failure`
/// recorder event.
pub fn record_failure() {
    with_state(|s| {
        let frames: Vec<&'static str> = s.judgements().collect();
        s.record(
            EventKind::Failure,
            frames.last().copied().unwrap_or("<top>"),
        );
        s.pending = Some(Failure {
            frames,
            equation: Vec::new(),
        });
    });
}

/// Appends an equation-path step to the pending failure (no-op if none
/// is pending). Steps accumulate innermost-first as a constructor
/// mismatch propagates out of `con_equiv`.
pub fn note_step(step: &'static str) {
    with_state(|s| {
        if let Some(p) = s.pending.as_mut() {
            if p.equation.len() < EQUATION_CAP {
                p.equation.push(step);
            }
        }
    });
}

/// Takes (and clears) the pending failure snapshot.
pub fn take_failure() -> Option<Failure> {
    with_state(|s| s.pending.take()).flatten()
}

/// Drops any stale pending failure. Called at the start of a compile so
/// a snapshot swallowed by one run can never leak into the next.
pub fn clear_failure() {
    with_state(|s| s.pending = None);
}

/// Logs a limit event (stage + limit-kind label) in the flight
/// recorder. Called from the `Limits` error constructors, i.e. exactly
/// when a bound actually fires.
pub fn note_limit(stage: &'static str, kind: &'static str) {
    with_state(|s| {
        s.record(EventKind::Limit, stage);
        s.record(EventKind::Limit, kind);
    });
}

/// The flight-recorder tail for this thread, oldest event first.
pub fn recorder_events() -> Vec<RecorderEvent> {
    let cap = RECORDER_CAP as u64;
    with_state(|s| {
        let live = s.seq.saturating_sub(cap)..s.seq;
        live.map(|seq| s.ring[(seq % cap) as usize]).collect()
    })
    .unwrap_or_default()
}

/// Total events ever recorded on this thread (events with sequence
/// numbers below `recorded() - RECORDER_CAP` have been overwritten).
pub fn recorder_seq() -> u64 {
    with_state(|s| s.seq).unwrap_or(0)
}

/// Clears the recorder and any pending failure (frame stack is left
/// alone — guards own it). Used by batch workers between files so a
/// crash bundle only describes the file that crashed.
pub fn reset_recorder() {
    with_state(|s| {
        s.seq = 0;
        s.pending = None;
    });
}

/// Everything a crash bundle needs from this thread's recorder, plus
/// the sink's counters if one is installed. Capture *on the thread
/// that failed* (the recorder is thread-local).
#[derive(Debug, Clone, Default)]
pub struct CrashData {
    /// Flight-recorder tail, oldest first.
    pub events: Vec<RecorderEvent>,
    /// Total events ever recorded (for gap detection).
    pub recorded: u64,
    /// Counter snapshot from the telemetry sink, if installed.
    pub counters: Option<std::collections::BTreeMap<&'static str, u64>>,
}

/// Captures [`CrashData`] for the current thread.
pub fn crash_data() -> CrashData {
    CrashData {
        events: recorder_events(),
        recorded: recorder_seq(),
        counters: crate::snapshot_counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_nest_and_unwind() {
        assert_eq!(frame_depth(), 0);
        {
            let _a = enter("a");
            let _b = enter("b");
            assert_eq!(current_frames(), vec!["a", "b"]);
            assert_eq!(frame_depth(), 2);
        }
        assert_eq!(frame_depth(), 0);
        assert!(current_frames().is_empty());
    }

    #[test]
    fn failure_snapshot_survives_unwinding() {
        clear_failure();
        {
            let _a = enter("outer");
            {
                let _b = enter("inner");
                record_failure();
            }
            note_step("domain");
        }
        let f = take_failure().expect("pending failure");
        assert_eq!(f.frames, vec!["outer", "inner"]);
        assert_eq!(f.equation, vec!["domain"]);
        assert!(take_failure().is_none(), "take clears the slot");
    }

    #[test]
    fn later_failures_overwrite_earlier_ones() {
        clear_failure();
        {
            let _a = enter("deep");
            record_failure();
        }
        record_failure(); // wrapped at the top: shallower wins
        let f = take_failure().expect("pending failure");
        assert!(f.frames.is_empty());
    }

    #[test]
    fn deep_stacks_are_bounded() {
        let guards: Vec<Guard> = (0..FRAME_CAP + 10).map(|_| enter("deep")).collect();
        assert_eq!(frame_depth(), FRAME_CAP + 10);
        assert_eq!(current_frames().len(), FRAME_CAP);
        drop(guards);
        assert_eq!(frame_depth(), 0);
        assert!(current_frames().is_empty());
    }

    #[test]
    fn recorder_wraps_and_keeps_order() {
        reset_recorder();
        for _ in 0..RECORDER_CAP {
            let _g = enter("spin"); // two events per iteration
        }
        let evs = recorder_events();
        assert_eq!(evs.len(), RECORDER_CAP);
        for w in evs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "tail is ordered");
        }
        assert_eq!(recorder_seq(), 2 * RECORDER_CAP as u64);
        reset_recorder();
        assert!(recorder_events().is_empty());
    }

    #[test]
    fn limit_events_are_recorded() {
        reset_recorder();
        note_limit("kernel", "deadline");
        let evs = recorder_events();
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::Limit && e.name == "kernel"));
    }
}
