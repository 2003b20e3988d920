//! Binary trace sinks: the frame-encoding counterparts of
//! [`MemSink`](crate::MemSink) and [`JsonlSink`](crate::JsonlSink).
//!
//! All three sinks implement [`TraceSink`] by overriding
//! [`TraceSink::emit_event`], so structured events skip JSON
//! formatting entirely and go straight to frames — the fast path that
//! makes megasubmission service traces affordable. `emit_line` (used
//! by [`Tracer::append_raw`](crate::Tracer::append_raw) replays and by
//! converters for lines they cannot re-encode) becomes a verbatim
//! raw-line frame, so nothing is ever lost in transit.

use crate::event::TraceEvent;
use crate::frame;
use crate::sink::TraceSink;
use std::io::Write;

/// In-memory binary sink: accumulates frames in a byte buffer, with
/// no file prelude — fragments from several sinks are concatenated
/// and then topped with one prelude at assembly time
/// ([`frame::write_prelude`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BinMemSink {
    buf: Vec<u8>,
    events: u64,
}

impl BinMemSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated frame bytes (no prelude).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Take the accumulated frames, leaving the sink empty.
    pub fn take(&mut self) -> Vec<u8> {
        self.events = 0;
        std::mem::take(&mut self.buf)
    }

    /// Discard accumulated frames, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.events = 0;
        self.buf.clear();
    }

    /// Frames captured so far (events + raw lines).
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl TraceSink for BinMemSink {
    fn emit_line(&mut self, line: &str) {
        frame::encode_raw_line(line, &mut self.buf);
        self.events += 1;
    }

    fn emit_event(&mut self, ev: &TraceEvent<'_>) {
        frame::encode_event(ev, &mut self.buf);
        self.events += 1;
    }
}

/// Length at which a [`BinFragSink`] closes its current fragment and
/// opens the next. A constant, not an option: measured on the
/// `svc-churn` benchmark workload (peak RSS; 166 MB with one doubling
/// buffer per sink), 64 KiB fragments read 176 MB — below glibc's
/// 128 KiB mmap threshold they share the worker arenas with the
/// per-plan records and leave holes — while 256 KiB, 1 MiB and 4 MiB
/// all read 141 MB. 1 MiB is well clear of that threshold and still
/// costs a sink that stays nearly empty only the pages it touched
/// (`svc-warm`, 6 events a plan: 25.9 MB, as with 4 MiB).
pub const FRAGMENT_BYTES: usize = 1 << 20;

/// Capacity a fragment reserves past [`FRAGMENT_BYTES`], so the frame
/// that crosses the line lands without growing the buffer. Event
/// frames are tens of bytes (their strings are tenant and family
/// labels); only a frame longer than this — a long raw line — grows
/// its fragment.
const FRAME_HEADROOM: usize = 4096;

/// In-memory binary sink for a long-lived producer: frames accumulate
/// in a list of fragments of [`FRAGMENT_BYTES`] each instead of one
/// buffer that doubles. A frame is encoded into the current fragment
/// and a new fragment opens once that one has reached the fragment
/// size, so no frame straddles two fragments, no trace byte is copied
/// or reallocated while the producer runs, and every fragment is a
/// prelude-less frame stream of its own
/// ([`FrameReader::without_prelude`](crate::FrameReader::without_prelude)).
/// The fragments concatenated are exactly what a [`BinMemSink`] fed the
/// same stream holds; the consumer takes them with
/// [`BinFragSink::into_fragments`] and can free each as it is written.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BinFragSink {
    /// Every fragment but the last is at least [`FRAGMENT_BYTES`] long.
    fragments: Vec<Vec<u8>>,
    events: u64,
}

impl BinFragSink {
    /// An empty sink; the first fragment is allocated by the first
    /// frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames captured so far (events + raw lines).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Frame bytes captured so far, over all fragments.
    pub fn bytes(&self) -> u64 {
        self.fragments.iter().map(|f| f.len() as u64).sum()
    }

    /// Hand the fragments over, in emission order.
    pub fn into_fragments(self) -> Vec<Vec<u8>> {
        self.fragments
    }

    /// The fragment the next frame goes into.
    fn open(&mut self) -> &mut Vec<u8> {
        if self.fragments.last().is_none_or(|f| f.len() >= FRAGMENT_BYTES) {
            self.fragments.push(Vec::with_capacity(FRAGMENT_BYTES + FRAME_HEADROOM));
        }
        self.fragments.last_mut().expect("a fragment is open")
    }
}

impl TraceSink for BinFragSink {
    fn emit_line(&mut self, line: &str) {
        frame::encode_raw_line(line, self.open());
        self.events += 1;
    }

    fn emit_event(&mut self, ev: &TraceEvent<'_>) {
        frame::encode_event(ev, self.open());
        self.events += 1;
    }
}

/// Streaming binary sink over any [`Write`] — frames go out as they
/// are produced; nothing is buffered beyond one frame (plus whatever
/// buffering the writer itself does). Error handling mirrors
/// [`JsonlSink`](crate::JsonlSink): the first I/O error latches, stops
/// further writes, and surfaces from [`BinSink::finish`]; dropping the
/// sink without `finish` still flushes, so an abnormal exit truncates
/// the trace at a frame boundary.
pub struct BinSink<W: Write> {
    /// `None` only after `finish` consumed the writer.
    w: Option<W>,
    error: Option<std::io::Error>,
    scratch: Vec<u8>,
    events: u64,
}

impl BinSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and stream a full binary trace there:
    /// the prelude is written immediately.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> BinSink<W> {
    /// Wrap a writer and emit the file prelude.
    pub fn new(w: W) -> Self {
        let mut sink = Self { w: Some(w), error: None, scratch: Vec::new(), events: 0 };
        let mut prelude = Vec::with_capacity(8);
        frame::write_prelude(&mut prelude);
        sink.write(&prelude);
        sink
    }

    /// Frames written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.w.as_mut() {
            if let Err(e) = w.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }

    fn flush_scratch(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.write(&scratch);
        self.scratch = scratch;
        self.scratch.clear();
        self.events += 1;
    }

    /// Flush and surface the first I/O error, if any.
    pub fn finish(mut self) -> std::io::Result<()> {
        let flushed = match self.w.take() {
            Some(mut w) => w.flush(),
            None => Ok(()),
        };
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        flushed
    }
}

impl<W: Write> TraceSink for BinSink<W> {
    fn emit_line(&mut self, line: &str) {
        frame::encode_raw_line(line, &mut self.scratch);
        self.flush_scratch();
    }

    fn emit_event(&mut self, ev: &TraceEvent<'_>) {
        frame::encode_event(ev, &mut self.scratch);
        self.flush_scratch();
    }
}

impl<W: Write> Drop for BinSink<W> {
    fn drop(&mut self) {
        if let Some(mut w) = self.w.take() {
            if let Err(e) = w.flush() {
                eprintln!("obs: binary trace sink dropped with unflushed data: {e}");
            }
        }
        if let Some(e) = self.error.take() {
            eprintln!("obs: binary trace sink dropped with unreported I/O error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frames_to_jsonl;
    use crate::sink::{MemSink, Tracer};

    #[test]
    fn bin_mem_sink_matches_jsonl_sink_content() {
        let mut jsonl = MemSink::new();
        let mut bin = BinMemSink::new();
        for sink in [&mut jsonl as &mut dyn TraceSink, &mut bin as &mut dyn TraceSink] {
            let mut t = Tracer::new(sink);
            t.emit(&TraceEvent::Header { producer: "binsink" });
            t.emit(&TraceEvent::Submit {
                seq: 0,
                tenant: "t0",
                family: "montage",
                size: 20,
                shard: 1,
            });
            t.emit_with(|| TraceEvent::Admit { seq: 0, shard: 1 });
        }
        let mut full = Vec::new();
        frame::write_prelude(&mut full);
        full.extend_from_slice(bin.as_bytes());
        assert_eq!(frames_to_jsonl(&full).unwrap(), jsonl.as_str());
        assert_eq!(bin.events(), 3);
    }

    #[test]
    fn raw_replay_into_binary_is_lossless() {
        let mut jsonl = MemSink::new();
        Tracer::new(&mut jsonl).emit(&TraceEvent::Sched { t: 0.5, ready: 1, idle_pes: 2 });
        let mut bin = BinMemSink::new();
        Tracer::new(&mut bin).append_raw(jsonl.as_str());
        let mut full = Vec::new();
        frame::write_prelude(&mut full);
        full.extend_from_slice(bin.as_bytes());
        assert_eq!(frames_to_jsonl(&full).unwrap(), jsonl.as_str());
    }

    /// One seeded stream for two sinks: events of several kinds, short
    /// raw lines, and one raw line longer than a whole fragment.
    fn feed_seeded_stream(sink: &mut dyn TraceSink) {
        let mut state = 2019u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = Tracer::new(sink);
        for i in 0..90_000u64 {
            let r = next();
            match r % 5 {
                0 => t.emit(&TraceEvent::Sched { t: r as f64 / 7.0, ready: i as u32, idle_pes: 3 }),
                1 => t.emit(&TraceEvent::Submit {
                    seq: i,
                    tenant: &format!("tenant-{}", r % 1000),
                    family: "montage",
                    size: 60 + (r % 90) as u32,
                    shard: (r % 4) as u32,
                }),
                2 => t.emit(&TraceEvent::Admit { seq: i, shard: (r % 4) as u32 }),
                3 => t.emit(&TraceEvent::EpisodeStart { episode: i as u32, epsilon: 0.1 }),
                _ => t.append_raw(&format!("{{\"ev\":\"future_kind\",\"n\":{r}}}\n")),
            }
            if i == 40_000 {
                let long =
                    format!("{{\"ev\":\"blob\",\"x\":\"{}\"}}\n", "z".repeat(FRAGMENT_BYTES + 999));
                t.append_raw(&long);
            }
        }
    }

    #[test]
    fn fragments_are_the_same_bytes_as_one_buffer() {
        let (mut whole, mut frag) = (BinMemSink::new(), BinFragSink::new());
        feed_seeded_stream(&mut whole);
        feed_seeded_stream(&mut frag);
        assert_eq!(frag.events(), whole.events());
        assert_eq!(frag.bytes(), whole.as_bytes().len() as u64);
        let fragments = frag.into_fragments();
        assert!(fragments.len() >= 4, "the stream spans several fragments: {}", fragments.len());
        assert!(fragments.concat() == whole.as_bytes(), "concatenated fragments differ");

        // Every fragment but the last is full, and none was grown
        // except the one that took the oversized raw line.
        let (last, full) = fragments.split_last().unwrap();
        assert!(!last.is_empty());
        assert!(full.iter().all(|f| f.len() >= FRAGMENT_BYTES));
        let grown: Vec<usize> = fragments
            .iter()
            .filter(|f| f.capacity() != FRAGMENT_BYTES + FRAME_HEADROOM)
            .map(Vec::len)
            .collect();
        assert_eq!(grown.len(), 1, "only the oversized line outgrows a fragment: {grown:?}");
        assert!(grown[0] > FRAGMENT_BYTES + FRAME_HEADROOM);

        // No frame straddles two fragments: each decodes on its own,
        // to a clean end, and the frame counts add up.
        let mut frames = 0;
        for fragment in &fragments {
            let mut reader = crate::FrameReader::without_prelude(&fragment[..]);
            while reader.next_frame().expect("a fragment is a frame stream").is_some() {}
            frames += reader.frames();
        }
        assert_eq!(frames, whole.events());
    }

    #[test]
    fn bin_file_sink_streams_a_readable_trace() {
        let dir = std::env::temp_dir().join(format!("obs-binsink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.trace.bin");
        {
            let mut sink = BinSink::create(path.to_str().unwrap()).unwrap();
            let mut t = Tracer::new(&mut sink);
            t.emit(&TraceEvent::Header { producer: "binfile" });
            for ep in 0..10 {
                t.emit(&TraceEvent::EpisodeStart { episode: ep, epsilon: 0.5 });
            }
            assert_eq!(sink.events(), 11);
            sink.finish().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert!(frame::is_binary(&bytes));
        let jsonl = frames_to_jsonl(&bytes).unwrap();
        assert_eq!(jsonl.lines().count(), 11);
        assert!(jsonl.starts_with("{\"ev\":\"header\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_bin_sink_flushes_at_a_frame_boundary() {
        let dir = std::env::temp_dir().join(format!("obs-binsink-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropped.trace.bin");
        {
            let mut sink = BinSink::create(path.to_str().unwrap()).unwrap();
            let mut t = Tracer::new(&mut sink);
            for ep in 0..25 {
                t.emit(&TraceEvent::EpisodeStart { episode: ep, epsilon: 0.1 });
            }
            // No finish(): Drop must flush complete frames.
        }
        let bytes = std::fs::read(&path).unwrap();
        let jsonl = frames_to_jsonl(&bytes).unwrap();
        assert_eq!(jsonl.lines().count(), 25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_errors_latch_and_surface() {
        struct Failing {
            ok_bytes: usize,
        }
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.ok_bytes == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                let n = buf.len().min(self.ok_bytes);
                self.ok_bytes -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = BinSink::new(Failing { ok_bytes: 12 });
        let mut t = Tracer::new(&mut sink);
        t.emit(&TraceEvent::Header { producer: "err" });
        t.emit(&TraceEvent::Admit { seq: 0, shard: 0 });
        let err = sink.finish().expect_err("write error must surface");
        assert!(err.to_string().contains("disk full"), "{err}");
    }
}
