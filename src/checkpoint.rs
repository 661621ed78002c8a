//! Resumable sweep checkpoints: the versioned sidecar behind
//! [`Experiment::resume`](crate::Experiment::resume).
//!
//! While a checkpointed digital sweep runs, the facade writes a
//! `faithful/1` **checkpoint document** next to the results after every
//! batch: the full experiment spec (embedded verbatim, so the sidecar
//! is self-contained), the total scenario count, and — for every
//! scenario that has already completed successfully — its
//! [`DoneScenario`]: label, event counts and recorded signals (output
//! ports first, then watched nodes). `DoneScenario` is also the
//! facade's own success record for a scenario, so [`render`] walks the
//! facade's records by reference into the text sink every document is
//! written through. Failed scenarios
//! are deliberately *not* checkpointed: a resumed run re-executes them,
//! so transient failures get a second chance and deterministic ones
//! re-surface.
//!
//! Resuming parses the sidecar into a [`CheckpointState`], rebuilds the
//! experiment from the embedded spec, skips every checkpointed
//! scenario, and merges the persisted records back into the final
//! result and statistics. For
//! seeded scenarios the merged result is bit-identical to an
//! uninterrupted run: signals round-trip exactly (`f64` times print via
//! `{:?}`), and statistics are re-aggregated in scenario-index order
//! from the same per-scenario data the runner would have produced.
//!
//! Writes are atomic (write-to-temp, then rename), so a kill mid-write
//! leaves the previous complete checkpoint in place.

use std::collections::BTreeMap;
use std::path::Path;

use ivl_core::Signal;

use crate::error::{CheckpointError, SpecError};
use crate::value::{parse_document, render_document, Fields, Read, Sink, Value, Walk};

/// Version tag of the checkpoint sidecar schema (inside the `faithful/1`
/// document version).
pub(crate) const CHECKPOINT_VERSION: u64 = 1;

/// One successfully completed scenario: the record a digital sweep
/// keeps for it, and what the sidecar persists.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DoneScenario {
    pub(crate) label: String,
    pub(crate) processed: u64,
    pub(crate) scheduled: u64,
    pub(crate) signals: Vec<(String, Signal)>,
}

/// A parsed sidecar: the persisted state of a partially completed
/// sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointState {
    /// The experiment spec, embedded verbatim.
    pub(crate) spec_text: String,
    /// Total scenario count of the sweep.
    pub(crate) total: usize,
    /// Retries spent across the completed portion.
    pub(crate) retried: u64,
    /// Completed scenarios by sweep index.
    pub(crate) done: BTreeMap<usize, DoneScenario>,
}

/// Renders a checkpoint as a versioned `faithful/1` document: the
/// embedded spec text, the sweep's scenario count and retries so far,
/// and every completed scenario by sweep index, in ascending order.
pub(crate) fn render<'a>(
    spec_text: &str,
    total: usize,
    retried: u64,
    done: impl IntoIterator<Item = (usize, &'a DoneScenario)>,
) -> String {
    render_document(&Sidecar {
        spec_text,
        total,
        retried,
        done: done.into_iter().collect(),
    })
}

/// What [`render`] writes.
struct Sidecar<'a> {
    spec_text: &'a str,
    total: usize,
    retried: u64,
    done: Vec<(usize, &'a DoneScenario)>,
}

impl Walk for Sidecar<'_> {
    fn walk(&self, s: &mut impl Sink) {
        s.node("checkpoint", 5);
        s.entry("version", &CHECKPOINT_VERSION);
        s.entry("total", &self.total);
        s.entry("retried", &self.retried);
        s.field("spec");
        s.str(self.spec_text);
        s.field("done");
        s.list(self.done.len(), false);
        for (index, d) in &self.done {
            s.node("done", 5);
            s.entry("index", index);
            s.entry("label", &d.label);
            s.entry("processed", &d.processed);
            s.entry("scheduled", &d.scheduled);
            s.entry("signals", &d.signals);
        }
    }
}

/// A `done` node: a completed scenario and its sweep index.
impl Read for (usize, DoneScenario) {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::node(value, "done", |f| {
            let index = f.req("index")?;
            let done = DoneScenario {
                label: f.req("label")?,
                processed: f.req("processed")?,
                scheduled: f.req("scheduled")?,
                signals: f.req("signals")?,
            };
            Ok((index, done))
        })
    }
}

/// Parses a checkpoint document.
pub(crate) fn parse(text: &str) -> Result<CheckpointState, CheckpointError> {
    let mut f = Fields::of(parse_document(text)?, "checkpoint")?;
    f.expect_tag(&["checkpoint"])?;
    let version: u64 = f.req("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::new(format!(
            "unsupported checkpoint version {version} (this build reads version \
             {CHECKPOINT_VERSION})"
        )));
    }
    let total = f.req("total")?;
    let retried = f.req("retried")?;
    let spec_text = f.req("spec")?;
    let mut done = BTreeMap::new();
    for (index, scenario) in f.req::<Vec<(usize, DoneScenario)>>("done")? {
        if index >= total {
            return Err(CheckpointError::new(format!(
                "completed scenario index {index} exceeds the sweep's total of {total}"
            )));
        }
        if done.insert(index, scenario).is_some() {
            return Err(CheckpointError::new(format!(
                "scenario index {index} is checkpointed twice"
            )));
        }
    }
    f.finish()?;
    Ok(CheckpointState {
        spec_text,
        total,
        retried,
        done,
    })
}

/// Reads and parses a checkpoint sidecar.
pub(crate) fn read(path: &Path) -> Result<CheckpointState, CheckpointError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CheckpointError::new(e.to_string()).at_path(path.display().to_string()))?;
    parse(&text).map_err(|e| e.at_path(path.display().to_string()))
}

/// Writes a rendered checkpoint atomically: to `<path>.tmp`, then
/// renamed over `path`, so an interrupted write never truncates the
/// previous complete checkpoint. Shares
/// [`crate::atomicio::write_atomic`] with the experiment service's disk
/// cache so both stores keep the same crash discipline.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), CheckpointError> {
    crate::atomicio::write_atomic(path, text.as_bytes())
        .map_err(|(e, at)| CheckpointError::new(e.to_string()).at_path(at.display().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_core::Bit;

    fn render_state(state: &CheckpointState) -> String {
        render(
            &state.spec_text,
            state.total,
            state.retried,
            state.done.iter().map(|(&i, d)| (i, d)),
        )
    }

    fn sample_state() -> CheckpointState {
        let mut done = BTreeMap::new();
        done.insert(
            2,
            DoneScenario {
                label: "s2".to_owned(),
                processed: 11,
                scheduled: 13,
                signals: vec![(
                    "y".to_owned(),
                    Signal::from_times(Bit::One, &[1.25, 3.0000000000000004]).unwrap(),
                )],
            },
        );
        done.insert(
            0,
            DoneScenario {
                label: "s0".to_owned(),
                processed: 7,
                scheduled: 7,
                signals: vec![("y".to_owned(), Signal::zero())],
            },
        );
        CheckpointState {
            spec_text: "faithful/1 channel {\n}\n".to_owned(),
            total: 5,
            retried: 3,
            done,
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let state = sample_state();
        let text = render_state(&state);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, state);
        // and the rendering is stable
        assert_eq!(render_state(&parsed), text);
    }

    #[test]
    fn bad_documents_are_rejected_with_reasons() {
        assert!(parse("garbage").is_err());
        // wrong version
        let text = render_state(&sample_state()).replace("version = 1", "version = 99");
        let err = parse(&text).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        // completed index out of range
        let text = render_state(&sample_state()).replace("total = 5", "total = 1");
        let err = parse(&text).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn atomic_write_and_read_round_trip() {
        let state = sample_state();
        let path =
            std::env::temp_dir().join(format!("faithful_ckpt_test_{}.spec", std::process::id()));
        write_atomic(&path, &render_state(&state)).unwrap();
        let read_back = read(&path).unwrap();
        assert_eq!(read_back, state);
        std::fs::remove_file(&path).ok();
        let err = read(&path).unwrap_err();
        assert!(err.path().is_some());
    }
}
