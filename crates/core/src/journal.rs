//! Run journal: serialises an experiment's per-generation trajectory to
//! JSON Lines — one [`JournalRecord`] per generation per population.
//!
//! The journal is shared across the populations a [`Framework`] run
//! executes in parallel; it is a `jsonl` log, so each record
//! lands as one whole line and is flushed as it is written.
//!
//! [`Framework`]: crate::Framework

use crate::jsonl::{self, Log, Record};
use hetsched_heuristics::SeedKind;
use hetsched_moea::observe::{GenerationStats, Observer};
use hetsched_moea::Individual;
use hetsched_sim::Allocation;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;

/// One journal line: which population produced the generation, plus the
/// engine's metrics record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Seeding-heuristic label of the population (e.g. `"Min Energy"`).
    pub population: String,
    /// The population's RNG stream index within the experiment.
    pub stream: u64,
    /// The engine's per-generation metrics.
    pub stats: GenerationStats,
}

impl Record for JournalRecord {
    const FAULT_POINT: Option<&'static str> = Some("journal.write");

    fn fault_scope(&self) -> &dyn std::fmt::Display {
        &self.stream
    }
}

/// A JSONL sink for [`JournalRecord`]s, safe to share across the
/// framework's parallel population runs.
pub struct RunJournal {
    log: Log<JournalRecord>,
}

impl RunJournal {
    /// Creates (truncating) a journal file.
    ///
    /// # Errors
    ///
    /// File creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(RunJournal {
            log: Log::create(path.as_ref())?,
        })
    }

    /// Wraps any writer — handy for tests and in-memory capture.
    pub fn to_writer(writer: impl Write + Send + 'static) -> Self {
        RunJournal {
            log: Log::to_writer(writer),
        }
    }

    /// Appends one record as a JSON line and flushes it, so a killed run
    /// loses at most the line being written.
    ///
    /// # Errors
    ///
    /// Serialisation or write failures.
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        self.log.append(record)
    }

    /// Reads a journal file back. A torn final line (the process was
    /// killed mid-write) is dropped; any *earlier* unparseable line is an
    /// error, since the file is then corrupt rather than merely
    /// truncated.
    ///
    /// # Errors
    ///
    /// I/O failures, or a malformed line that is not the last.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<JournalRecord>> {
        Ok(jsonl::read(path.as_ref())?.records)
    }
}

/// Bridges one population's engine observer to a shared [`RunJournal`].
/// Write errors are reported once via `tracing::warn!` and further appends
/// are suppressed, so a full disk cannot abort a long experiment.
pub struct JournalObserver<'a> {
    journal: &'a RunJournal,
    population: &'static str,
    stream: u64,
    failed: bool,
}

impl<'a> JournalObserver<'a> {
    /// Creates the observer for one population run.
    pub fn new(journal: &'a RunJournal, seed: SeedKind, stream: u64) -> Self {
        JournalObserver {
            journal,
            population: seed.label(),
            stream,
            failed: false,
        }
    }
}

impl Observer<Allocation> for JournalObserver<'_> {
    fn on_generation(&mut self, stats: &GenerationStats, _population: &[Individual<Allocation>]) {
        if self.failed {
            return;
        }
        let record = JournalRecord {
            population: self.population.to_string(),
            stream: self.stream,
            stats: stats.clone(),
        };
        if let Err(e) = self.journal.append(&record) {
            tracing::warn!(
                "journal write failed for population {} (stream {}): {e}; disabling journal",
                self.population,
                self.stream,
            );
            self.failed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_moea::observe::PhaseTimings;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer whose buffer outlives the journal, for asserting output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn record(generation: usize) -> JournalRecord {
        JournalRecord {
            population: "Random".to_string(),
            stream: 4,
            stats: GenerationStats {
                generation,
                front_sizes: vec![3, 1],
                ideal: [-10.0, 2.5],
                hypervolume: Some(12.0),
                crowding_spread: 0.5,
                evaluations: 16,
                timings: PhaseTimings {
                    mating_s: 0.01,
                    evaluation_s: 0.02,
                    sorting_s: 0.003,
                },
            },
        }
    }

    #[test]
    fn writes_one_line_per_record() {
        let buf = SharedBuf::default();
        let journal = RunJournal::to_writer(buf.clone());
        for generation in 1..=3 {
            journal.append(&record(generation)).unwrap();
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            let rendered = serde_json::to_string(&value).unwrap();
            assert!(rendered.contains("\"population\":\"Random\""), "{rendered}");
            assert!(
                rendered.contains(&format!("\"generation\":{}", i + 1)),
                "{rendered}"
            );
        }
    }

    #[test]
    fn records_roundtrip_through_write_and_read() {
        let path = std::env::temp_dir().join(format!(
            "hetsched-journal-roundtrip-{}.jsonl",
            std::process::id()
        ));
        let written: Vec<JournalRecord> = (1..=4).map(record).collect();
        {
            let journal = RunJournal::create(&path).unwrap();
            for r in &written {
                journal.append(r).unwrap();
            }
        }
        let read = RunJournal::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(read, written);
    }

    /// A writer that fails every operation, for the error path.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn append_surfaces_write_errors() {
        let journal = RunJournal::to_writer(BrokenWriter);
        let err = journal.append(&record(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let buf = SharedBuf::default();
        let journal = Arc::new(RunJournal::to_writer(buf.clone()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let journal = Arc::clone(&journal);
                scope.spawn(move || {
                    for generation in 1..=50 {
                        journal.append(&record(generation)).unwrap();
                    }
                });
            }
        });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 200);
        for line in lines {
            serde_json::from_str::<serde_json::Value>(line)
                .unwrap_or_else(|e| panic!("corrupt journal line {line:?}: {e}"));
        }
    }
}
