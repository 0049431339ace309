//! The append-only JSON Lines log behind every record stream the
//! framework persists: the campaign manifest, the run journal, span
//! traces, heartbeats and the rolling-horizon stream manifest.
//!
//! One record is one line. An append renders the record and its `\n`
//! and hands both to the OS in a single `write`, behind a
//! poison-recovering mutex: concurrent appenders never interleave within
//! a line, and a panicking appender cannot disable the log for the
//! threads that survive it. Each record is flushed as it is written;
//! whether the log is shared, fsyncs every record or starts with a
//! header is fixed per record type by its [`Record`] constants.
//!
//! **The torn-tail rule.** A writer killed mid-append leaves bytes after
//! the log's last `\n`.
//!
//! * Opening a log for append repairs that tail. A single-writer log
//!   truncates it back to the last `\n`. The shared campaign manifest
//!   terminates it with `\n` instead: other processes may be appending
//!   to the same file, so its bytes are never cut. The manifest repeats
//!   the repair under its store lock.
//! * Reading drops an unparseable final line. An unparseable line
//!   anywhere earlier is corruption in a single-writer log, and an error;
//!   in the shared manifest it is a terminated torn tail, skipped with a
//!   counted warning.

use crate::chaos_hooks;
use crate::durable::lock_unpoisoned;
use serde::{DeserializeOwned, Serialize};
use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A type persisted one per line in a [`Log`]. The defaults describe a
/// single-writer log, flushed per record, with no header or fault point.
pub(crate) trait Record: Serialize + DeserializeOwned {
    /// Several processes append to the log at once.
    const SHARED: bool = false;
    /// Every record is fsynced (`sync_data`), not only flushed.
    const SYNC: bool = false;
    /// The first line is a header, not a record.
    const HEADER: bool = false;
    /// The chaos fault point fired inside the append lock.
    const FAULT_POINT: Option<&'static str> = None;

    /// What a `[scope]` filter on the log's fault point matches.
    fn fault_scope(&self) -> &dyn Display {
        &""
    }
}

enum Sink {
    File { file: File, path: PathBuf },
    Writer(Box<dyn Write + Send>),
}

/// An append handle on a log of `R` records.
pub(crate) struct Log<R> {
    sink: Mutex<Sink>,
    record: PhantomData<fn(&R)>,
}

impl<R: Record> Log<R> {
    /// Creates the log at `path`, truncating any previous contents.
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::file(File::create(path)?, path))
    }

    /// Opens the log at `path` for append, creating it if needed, and
    /// repairs a torn tail.
    pub(crate) fn open(path: &Path) -> io::Result<Self> {
        Self::open_with(path, None)
    }

    /// Like [`Log::open`], and writes `header` as the first line when the
    /// log is empty.
    pub(crate) fn open_with_header(path: &Path, header: &impl Serialize) -> io::Result<Self> {
        Self::open_with(path, Some(render(header)?))
    }

    fn open_with(path: &Path, header: Option<String>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        repair_tail::<R>(&file, path)?;
        if let Some(header) = header {
            if file.metadata()?.len() == 0 {
                write_line::<R>(&file, &header)?;
            }
        }
        Ok(Self::file(file, path))
    }

    fn file(file: File, path: &Path) -> Self {
        let path = path.to_path_buf();
        Self::with_sink(Sink::File { file, path })
    }

    /// A log over any writer, for in-memory capture in tests.
    pub(crate) fn to_writer(writer: impl Write + Send + 'static) -> Self {
        Self::with_sink(Sink::Writer(Box::new(writer)))
    }

    fn with_sink(sink: Sink) -> Self {
        Log {
            sink: Mutex::new(sink),
            record: PhantomData,
        }
    }

    /// Appends `record` as one line.
    ///
    /// # Errors
    ///
    /// Serialisation, write or fsync failures, and injected chaos faults.
    pub(crate) fn append(&self, record: &R) -> io::Result<()> {
        let line = render(record)?;
        let mut sink = lock_unpoisoned(&self.sink);
        // Inside the lock, so an injected panic really poisons it.
        if let Some(point) = R::FAULT_POINT {
            chaos_hooks::raise_io(point, record.fault_scope())?;
        }
        match &mut *sink {
            Sink::File { file, .. } => write_line::<R>(file, &line),
            Sink::Writer(writer) => writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush()),
        }
    }

    /// Repairs a torn tail left since the log was opened (by another
    /// process appending to a shared log).
    pub(crate) fn repair_tail(&self) -> io::Result<()> {
        match &*lock_unpoisoned(&self.sink) {
            Sink::File { file, path } => repair_tail::<R>(file, path),
            Sink::Writer(_) => Ok(()),
        }
    }

    /// The append mutex, so tests can poison it the way a panicking
    /// appender would.
    #[cfg(test)]
    pub(crate) fn mutex(&self) -> &Mutex<impl Sized> {
        &self.sink
    }
}

fn render(value: &impl Serialize) -> io::Result<String> {
    let mut line = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    Ok(line)
}

fn write_line<R: Record>(mut file: &File, line: &str) -> io::Result<()> {
    file.write_all(line.as_bytes())?;
    if R::SYNC {
        file.sync_data()?;
    }
    Ok(())
}

/// Applies the open-side torn-tail rule to `file`.
fn repair_tail<R: Record>(mut file: &File, path: &Path) -> io::Result<()> {
    let len = file.metadata()?.len();
    let end = end_of_last_line(file, len)?;
    if end == len {
        return Ok(());
    }
    let repair = if R::SHARED {
        "terminating"
    } else {
        "truncating"
    };
    tracing::warn!(
        "{}: {repair} a torn tail left by an interrupted writer",
        path.display()
    );
    if R::SHARED {
        file.write_all(b"\n")
    } else {
        file.set_len(end)
    }
}

/// The offset just past the last `\n` in the first `len` bytes of
/// `file` (0 when there is none), scanning back from the end.
fn end_of_last_line(mut file: &File, len: u64) -> io::Result<u64> {
    let mut chunk = [0u8; 4096];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(chunk.len() as u64);
        let bytes = &mut chunk[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(bytes)?;
        if let Some(at) = bytes.iter().rposition(|&b| b == b'\n') {
            return Ok(start + at as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

/// A log read back.
pub(crate) struct Contents<R> {
    /// The raw first line, for record types with a header (`None` when
    /// the log is empty).
    pub header: Option<String>,
    /// Every record that survived the torn-tail rule, in log order.
    pub records: Vec<R>,
}

/// Reads the log at `path`, applying the read-side torn-tail rule. Blank
/// lines carry no record and are skipped.
///
/// # Errors
///
/// I/O failures, and ([`io::ErrorKind::InvalidData`]) an unparseable
/// line before the last in a single-writer log.
pub(crate) fn read<R: Record>(path: &Path) -> io::Result<Contents<R>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut contents = Contents {
        header: None,
        records: Vec::new(),
    };
    let mut bytes = Vec::new();
    let mut number = 0usize;
    // The latest unparseable line; only the final line may be torn.
    let mut torn: Option<usize> = None;
    let mut skipped = 0usize;
    while reader.read_until(b'\n', &mut bytes)? > 0 {
        number += 1;
        let line = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
        if R::HEADER && contents.header.is_none() && !line.is_empty() {
            contents.header = Some(String::from_utf8_lossy(line).into_owned());
        } else if !line.is_empty() {
            if let Some(at) = torn.take() {
                if !R::SHARED {
                    let message = format!("{}: line {at} is unparseable", path.display());
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                skipped += 1;
            }
            match std::str::from_utf8(line).map(serde_json::from_str::<R>) {
                Ok(Ok(record)) => contents.records.push(record),
                _ => torn = Some(number),
            }
        }
        bytes.clear();
    }
    let dropped = skipped + usize::from(torn.is_some());
    if R::SHARED && dropped > 0 {
        tracing::warn!(
            "{}: dropped {dropped} torn line(s) left by interrupted writer(s)",
            path.display()
        );
    }
    Ok(contents)
}

/// The first line of the file at `path` (empty for an empty file), for
/// telling which kind of log it holds.
///
/// # Errors
///
/// I/O failures.
pub(crate) fn first_line(path: &Path) -> io::Result<String> {
    let mut line = Vec::new();
    BufReader::new(File::open(path)?).read_until(b'\n', &mut line)?;
    Ok(String::from_utf8_lossy(&line).trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CellId, CellOutcome, CellRecord};
    use crate::config::DatasetId;
    use crate::journal::JournalRecord;
    use crate::lease::{LeaseAction, LeaseRecord};
    use crate::manifest::ManifestRecord;
    use crate::streaming::StreamLine;
    use crate::telemetry::HeartbeatLine;
    use crate::trace::SpanRecord;
    use hetsched_heuristics::SeedKind;
    use hetsched_moea::observe::{GenerationStats, PhaseTimings};
    use hetsched_moea::Algorithm;
    use std::fmt::Debug;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hetsched-jsonl-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn lines(records: &[impl Serialize]) -> String {
        records.iter().map(|r| render(r).unwrap()).collect()
    }

    /// Writes `written` (after a header, for logs that have one), then
    /// for every cut inside the last record: reads the torn file, reopens
    /// it for append, appends `appended` and reads it back. Every cut
    /// that leaves the last record incomplete reads back as the first
    /// N−1 records followed by the appended ones. A cut that removes only
    /// the final `\n` leaves a complete record: a single-writer log
    /// truncates it on open, the shared manifest terminates and keeps it.
    fn survives_every_cut<R: Record + PartialEq + Debug>(tag: &str, written: &[R], appended: &[R]) {
        let path = temp_path(tag);
        let open = || {
            if R::HEADER {
                Log::<R>::open_with_header(&path, &format!("{tag} header")).unwrap()
            } else {
                Log::<R>::open(&path).unwrap()
            }
        };
        let _ = std::fs::remove_file(&path);
        let log = open();
        for record in written {
            log.append(record).unwrap();
        }
        drop(log);
        let full = std::fs::read(&path).unwrap();
        let header = R::HEADER.then(|| format!("\"{tag} header\""));
        let last = lines(&written[written.len() - 1..]);
        let start = full.len() - last.len();
        let (kept, torn) = written.split_at(written.len() - 1);

        for cut in start..full.len() {
            let whole_record = cut == full.len() - 1;
            std::fs::write(&path, &full[..cut]).unwrap();
            let before = read::<R>(&path).unwrap();
            assert_eq!(before.header, header, "{tag} cut at {cut}");
            let survivors = if whole_record { written } else { kept };
            assert_eq!(before.records, survivors, "{tag}: read at cut {cut}");

            let log = open();
            for record in appended {
                log.append(record).unwrap();
            }
            drop(log);
            let after = read::<R>(&path).unwrap();
            assert_eq!(after.header, header, "{tag}: cut {cut}");
            let mut expected: Vec<&R> = kept.iter().collect();
            let mut bytes = full[..start].to_vec();
            if R::SHARED && cut > start {
                // The fragment stays, on a line of its own.
                bytes.extend_from_slice(&full[start..cut]);
                bytes.push(b'\n');
                if whole_record {
                    expected.extend(torn);
                }
            }
            expected.extend(appended);
            bytes.extend_from_slice(lines(appended).as_bytes());
            assert_eq!(
                after.records.iter().collect::<Vec<_>>(),
                expected,
                "{tag}: cut {cut}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "{tag}: bytes at cut {cut}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    fn cell(replicate: usize) -> ManifestRecord {
        ManifestRecord::Cell(CellRecord {
            cell: cell_id(replicate),
            run: None,
            error: Some("injected".to_string()),
            outcome: CellOutcome::Poisoned,
            attempts: 2,
            duration_s: 0.5,
            worker: Some("w1".to_string()),
            epoch: Some(1),
        })
    }

    fn cell_id(replicate: usize) -> CellId {
        CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Nsga2,
            seed: SeedKind::Random,
            replicate,
        }
    }

    fn lease(replicate: usize, action: LeaseAction) -> ManifestRecord {
        ManifestRecord::Lease(LeaseRecord::new(cell_id(replicate), "w1", 1, action, 9.5))
    }

    fn journal(generation: usize) -> JournalRecord {
        JournalRecord {
            population: "Min Energy".to_string(),
            stream: 2,
            stats: GenerationStats {
                generation,
                front_sizes: vec![4, 2],
                ideal: [-12.5, 3.0],
                hypervolume: Some(7.25),
                crowding_spread: 0.5,
                evaluations: 20,
                timings: PhaseTimings {
                    mating_s: 0.001,
                    evaluation_s: 0.002,
                    sorting_s: 0.0005,
                },
            },
        }
    }

    fn span(span_id: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id,
            parent_id: (span_id > 1).then_some(1),
            name: "cell".to_string(),
            target: "hetsched_core::campaign".to_string(),
            level: "INFO".to_string(),
            start_ns: 10 * span_id,
            duration_ns: 5,
            thread: 2,
            fields: vec![("replicate".to_string(), serde::to_value(&span_id))],
        }
    }

    fn heartbeat(cells_done: u64) -> HeartbeatLine {
        HeartbeatLine {
            elapsed_s: cells_done as f64 * 0.5,
            cells_done,
            cells_total: 8,
            cells_failed: 0,
            cells_retried: 1,
            ewma_cell_s: 0.25,
            eta_s: (cells_done > 0).then_some(1.5),
        }
    }

    fn stream(line: &str) -> StreamLine {
        serde_json::from_str(line).unwrap()
    }

    fn feed(until: f64) -> StreamLine {
        stream(&format!(
            "{{\"kind\":\"feed\",\"until\":{until},\"tasks\":[{{\"id\":0,\"task_type\":2,\
             \"arrival\":{},\"tuf\":{{\"priority\":8.0,\"urgency\":0.02,\"classes\":[],\
             \"final_fraction\":0.25}}}}]}}",
            until - 5.0
        ))
    }

    fn commit(tick: usize) -> StreamLine {
        stream(&format!(
            "{{\"kind\":\"commit\",\"record\":{{\"tick\":{tick},\"now\":{}.0,\"tasks\":3,\
             \"frozen\":1,\"rejected\":[2],\"utility\":4.5,\"energy\":1200.0,\
             \"makespan\":30.5}}}}",
            20 * tick
        ))
    }

    #[test]
    fn every_log_survives_a_cut_anywhere_in_its_last_record() {
        survives_every_cut(
            "manifest-cell",
            &[lease(0, LeaseAction::Acquire), cell(0), cell(1)],
            &[cell(2), lease(2, LeaseAction::Release)],
        );
        survives_every_cut(
            "manifest-lease",
            &[
                cell(0),
                lease(1, LeaseAction::Acquire),
                lease(1, LeaseAction::Renew),
            ],
            &[cell(1), lease(1, LeaseAction::Release)],
        );
        survives_every_cut(
            "journal",
            &[journal(1), journal(2), journal(3)],
            &[journal(3), journal(4)],
        );
        survives_every_cut("span", &[span(1), span(2), span(3)], &[span(4), span(5)]);
        survives_every_cut(
            "heartbeat",
            &[heartbeat(0), heartbeat(1), heartbeat(2)],
            &[heartbeat(3), heartbeat(8)],
        );
        survives_every_cut(
            "stream-commit",
            &[feed(20.0), commit(0), feed(40.0), commit(1)],
            &[feed(60.0), commit(2)],
        );
        survives_every_cut(
            "stream-feed",
            &[feed(20.0), commit(0), feed(40.0)],
            &[feed(40.0), commit(1)],
        );
    }

    #[test]
    fn earlier_corruption_is_an_error_alone_in_single_writer_logs() {
        let path = temp_path("corrupt");
        let good = lines(&[journal(1)]);
        std::fs::write(&path, format!("{{\"torn\n{good}")).unwrap();
        let err = read::<JournalRecord>(&path).map(|c| c.records).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "{err}");

        // The shared manifest skips it: a terminated torn tail.
        let good = lines(&[cell(0)]);
        std::fs::write(
            &path,
            format!("{{\"fingerprint\":\"f\",\"version\":4}}\n{{\"cell\n\n{good}"),
        )
        .unwrap();
        let contents = read::<ManifestRecord>(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(contents.records, vec![cell(0)]);
    }
}
