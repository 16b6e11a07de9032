//! Where stamped [`Event`]s go: an [`Observer`], such as the in-memory
//! [`RingBuffer`] or the JSONL file writer [`JsonlSink`].

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Event;

/// A receiver of stamped events: the one way a campaign's events leave
/// it.
///
/// Implementations must be `Sync`: a campaign hands each run's events
/// over on whichever of its workers resumed the run, in the order the
/// runs finish, so only the canonical `(source, seq)` order is the same
/// at any worker count.
pub trait Observer: Sync {
    /// Receives one event.
    fn on_event(&self, event: &Event);
}

/// Appends one [`Event::to_json_line`] per event to a file — the
/// `repro run --trace events.jsonl` format. The first write error is
/// kept, nothing is written after it, and [`JsonlSink::flush`] returns it.
pub struct JsonlSink {
    file: Mutex<JsonlFile>,
}

struct JsonlFile {
    writer: BufWriter<File>,
    /// Events written so far, buffered ones included.
    emitted: u64,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self {
            file: Mutex::new(JsonlFile {
                writer: BufWriter::new(File::create(path)?),
                emitted: 0,
                error: None,
            }),
        })
    }

    /// Events written so far, buffered ones included.
    pub fn emitted(&self) -> u64 {
        self.file.lock().expect("jsonl lock").emitted
    }

    /// Writes out the buffered lines.
    ///
    /// # Errors
    ///
    /// The first error an earlier write met, or the flush's own.
    pub fn flush(&self) -> io::Result<()> {
        let mut file = self.file.lock().expect("jsonl lock");
        match file.error.take() {
            Some(e) => Err(e),
            None => file.writer.flush(),
        }
    }
}

impl Observer for JsonlSink {
    fn on_event(&self, event: &Event) {
        let mut file = self.file.lock().expect("jsonl lock");
        if file.error.is_none() {
            let line = event.to_json_line() + "\n";
            match file.writer.write_all(line.as_bytes()) {
                Ok(()) => file.emitted += 1,
                Err(e) => file.error = Some(e),
            }
        }
    }
}

/// A bounded in-memory event buffer that keeps the most recent
/// `capacity` events and counts every event it received.
#[derive(Debug)]
pub struct RingBuffer {
    events: Mutex<VecDeque<Event>>,
    capacity: usize,
    emitted: AtomicU64,
}

impl RingBuffer {
    /// A ring retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            emitted: AtomicU64::new(0),
        }
    }

    /// A copy of the retained events in canonical `(source, seq)` order —
    /// the merge order that makes parallel and sequential runs
    /// comparable. The ring itself is left untouched.
    pub fn events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .events
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect();
        events.sort_by_key(|e| (e.source, e.seq));
        events
    }

    /// Total events received, including evicted ones.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }
}

impl Observer for RingBuffer {
    /// Keeps a copy of `event`, evicting the oldest past capacity.
    fn on_event(&self, event: &Event) {
        let mut events = self.events.lock().expect("ring lock");
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event.clone());
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn event(source: u32, seq: u64) -> Event {
        Event {
            source,
            seq,
            kind: EventKind::BracketStart { bracket: seq },
        }
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let ring = RingBuffer::new(2);
        for seq in 0..5 {
            ring.on_event(&event(0, seq));
        }
        let kept: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(ring.emitted(), 5);
        // Non-consuming: a second read sees the same events.
        assert_eq!(ring.events().len(), 2);
    }

    #[test]
    fn ring_events_come_in_canonical_order() {
        let ring = RingBuffer::new(8);
        for (source, seq) in [(7, 0), (0, 1), (7, 1), (0, 0)] {
            ring.on_event(&event(source, seq));
        }
        let order: Vec<(u32, u64)> = ring.events().iter().map(|e| (e.source, e.seq)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (7, 0), (7, 1)]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!(
            "ax-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.on_event(&event(0, 0));
        sink.on_event(&event(0, 1));
        sink.flush().unwrap();
        assert_eq!(sink.emitted(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"source\": 0, \"seq\": 0,"));
        assert!(lines[1].contains("\"bracket\": 1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `/dev/full` accepts the open and fails every write with `ENOSPC`:
    /// the failure must come back from `flush`, whether it surfaced there
    /// (a buffered line) or in an earlier write (more than a buffer full).
    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_reports_a_failed_write() {
        for events in [1, 1_000] {
            let sink = JsonlSink::create("/dev/full").unwrap();
            for seq in 0..events {
                sink.on_event(&event(0, seq));
            }
            let err = sink.flush().unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28), "{events} event(s): {err}");
        }
    }
}
