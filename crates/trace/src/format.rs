//! The on-disk trace format: a magic/version header followed by
//! length-prefixed, checksummed frames.
//!
//! # Format specification (version 1)
//!
//! A trace stream is:
//!
//! ```text
//! header  := magic "MCBPTRC\0" (8 bytes) | version u32 LE
//! stream  := header frame* end-frame
//! frame   := kind u8 | payload_len u32 LE | payload | checksum u32 LE
//! ```
//!
//! The checksum is FNV-1a-32 over the kind byte followed by the payload,
//! so a flipped bit anywhere in a frame is caught at read time
//! ([`TraceError::Corrupted`]). All integers are little-endian;
//! floating-point values are stored as their IEEE-754 bit patterns
//! (`f64::to_bits`), so infinities — closed-loop releases carry
//! `f64::INFINITY` arrivals — and every finite value round-trip exactly.
//!
//! Frame kinds:
//!
//! | kind | frame     | payload |
//! |------|-----------|---------|
//! | 1    | `Meta`    | devices u32, closed-loop flag u8 (+ concurrency u64), request count u64, event count u64 |
//! | 2    | `Request` | id u64, arrival bits u64, prompt u32, decode u32, priority u8, SLO (2 × flag u8 + bits u64), prefix (flag u8 + id u64 + tokens u32), task-name len u16 + UTF-8 |
//! | 3    | `Route`   | id u64, device u32, cycle bits u64 |
//! | 4    | `Admit`   | device u32, cycle bits u64, id u64, resumed u8, reused-prefix tokens u32, queue depth u32 |
//! | 5    | `Drop`    | device u32, cycle bits u64, id u64 |
//! | 6    | `Step`    | device u32, start/end bits 2 × u64, prefill streams u32, decode streams u32, prefill tokens u32, queue u32, active u32, pool bytes u64, completions u32 |
//! | 7    | `Preempt` | device u32, cycle bits u64, victim u64, swapped bytes u64 |
//! | 8    | `Handoff` | id u64, from u32, to u32, cycle bits u64, arrival bits u64, bytes u64 |
//! | 255  | `End`     | request count u64, event count u64 |
//!
//! A reader requires exactly one leading `Meta` frame, tolerates request
//! and event frames in any interleaving, and requires the terminating
//! `End` frame, whose counts must agree with both the `Meta` declaration
//! and the frames actually read ([`TraceError::CountMismatch`]) — a
//! truncated file therefore fails loudly ([`TraceError::Truncated`])
//! instead of yielding a silently shorter trace.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use mcbp_serve::{
    Priority, Request, RunTrace, SharedPrefix, SloSpec, TraceEvent, Workload, CLOCK_HZ,
};

/// Leading magic bytes of every trace stream.
pub const TRACE_MAGIC: [u8; 8] = *b"MCBPTRC\0";
/// Current format version.
pub const TRACE_VERSION: u32 = 1;

const KIND_META: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_ROUTE: u8 = 3;
const KIND_ADMIT: u8 = 4;
const KIND_DROP: u8 = 5;
const KIND_STEP: u8 = 6;
const KIND_PREEMPT: u8 = 7;
const KIND_HANDOFF: u8 = 8;
const KIND_END: u8 = 0xFF;

/// Upper bound on a single frame's payload — far above any real frame,
/// so a corrupted length field fails fast instead of allocating wildly.
const MAX_PAYLOAD: u32 = 1 << 24;

/// Typed failure modes of trace serialization and deserialization.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// The stream's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The stream ended before its `End` frame (e.g. a partially written
    /// or truncated file).
    Truncated,
    /// A frame's checksum did not match its contents (bit rot, torn
    /// write). `frame` is the 0-based index of the offending frame.
    Corrupted {
        /// 0-based index of the frame that failed its checksum.
        frame: u64,
    },
    /// A frame declared a kind this reader does not know.
    UnknownFrameKind {
        /// 0-based index of the offending frame.
        frame: u64,
        /// The unknown kind byte.
        kind: u8,
    },
    /// A frame's payload did not parse (wrong length, invalid UTF-8,
    /// out-of-range enum byte, missing leading `Meta`, …).
    Malformed {
        /// 0-based index of the offending frame.
        frame: u64,
    },
    /// A workload request field does not fit its fixed-width slot in the
    /// format (`u32` token counts, `u16` task-name length). The writer
    /// rejects the run before emitting any frame rather than truncate.
    FieldTooLarge {
        /// Id of the offending request.
        request: u64,
        /// Which field overflowed.
        field: &'static str,
        /// The value that does not fit.
        value: usize,
    },
    /// The `End` frame's counts disagree with the `Meta` declaration or
    /// with the frames actually present.
    CountMismatch {
        /// What was counted.
        what: &'static str,
        /// Count the stream declared.
        declared: u64,
        /// Count the reader observed.
        observed: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace stream (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (reader speaks {TRACE_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace stream truncated before its end frame"),
            TraceError::Corrupted { frame } => write!(f, "trace frame {frame} failed its checksum"),
            TraceError::UnknownFrameKind { frame, kind } => {
                write!(f, "trace frame {frame} has unknown kind {kind}")
            }
            TraceError::Malformed { frame } => {
                write!(f, "trace frame {frame} payload is malformed")
            }
            TraceError::FieldTooLarge {
                request,
                field,
                value,
            } => write!(
                f,
                "trace request {request}: {field} {value} does not fit the format"
            ),
            TraceError::CountMismatch {
                what,
                declared,
                observed,
            } => write!(
                f,
                "trace {what} count mismatch: declared {declared}, observed {observed}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// FNV-1a-32 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Interns a deserialized task name: [`Request::task_name`] is a
/// `&'static str`, so replayed names are leaked once per distinct name
/// (bounded by the benchmark-task vocabulary, not the trace length).
fn intern_task_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("task-name interner poisoned");
    if let Some(&interned) = names.iter().find(|&&n| n == name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    names.push(leaked);
    leaked
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams a [`RunTrace`] into the versioned frame format over any
/// [`Write`] sink. Construction writes the header; [`TraceWriter::write_run`]
/// writes one complete run.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
}

impl<W: Write> TraceWriter<W> {
    /// Opens a writer, emitting the magic/version header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the header cannot be written.
    pub fn new(mut sink: W) -> Result<Self, TraceError> {
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&TRACE_VERSION.to_le_bytes())?;
        Ok(TraceWriter { sink })
    }

    /// Serializes one recorded run: its meta frame, every workload
    /// request, every event, and the terminating end frame.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::FieldTooLarge`] (before writing any frame)
    /// if a request does not fit the format, or [`TraceError::Io`] if
    /// the sink fails.
    pub fn write_run(&mut self, trace: &RunTrace) -> Result<(), TraceError> {
        for req in &trace.workload.requests {
            check_fits(req)?;
        }
        let mut payload = Vec::with_capacity(32);
        payload.extend_from_slice(&trace.devices.to_le_bytes());
        match trace.workload.closed_loop {
            Some(c) => {
                payload.push(1);
                payload.extend_from_slice(&(c as u64).to_le_bytes());
            }
            None => {
                payload.push(0);
                payload.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        payload.extend_from_slice(&(trace.workload.requests.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(trace.events.len() as u64).to_le_bytes());
        self.frame(KIND_META, &payload)?;

        for req in &trace.workload.requests {
            self.frame(KIND_REQUEST, &encode_request(req))?;
        }
        for ev in &trace.events {
            let (kind, payload) = encode_event(ev);
            self.frame(kind, &payload)?;
        }

        let mut end = Vec::with_capacity(16);
        end.extend_from_slice(&(trace.workload.requests.len() as u64).to_le_bytes());
        end.extend_from_slice(&(trace.events.len() as u64).to_le_bytes());
        self.frame(KIND_END, &end)?;
        self.sink.flush()?;
        Ok(())
    }

    /// Consumes the writer, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    fn frame(&mut self, kind: u8, payload: &[u8]) -> Result<(), TraceError> {
        self.sink.write_all(&[kind])?;
        self.sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(payload)?;
        let mut sum = fnv1a(&[kind]);
        for &b in payload {
            sum ^= u32::from(b);
            sum = sum.wrapping_mul(0x0100_0193);
        }
        self.sink.write_all(&sum.to_le_bytes())?;
        Ok(())
    }
}

/// Rejects a request whose fields would not fit their slots in a
/// `Request` frame.
fn check_fits(req: &Request) -> Result<(), TraceError> {
    let fields = [
        ("prompt_len", req.prompt_len, u32::MAX as usize),
        ("decode_len", req.decode_len, u32::MAX as usize),
        (
            "prefix tokens",
            req.prefix.map_or(0, |p| p.tokens),
            u32::MAX as usize,
        ),
        ("task-name length", req.task_name.len(), u16::MAX as usize),
    ];
    match fields.into_iter().find(|&(_, value, max)| value > max) {
        Some((field, value, _)) => Err(TraceError::FieldTooLarge {
            request: req.id,
            field,
            value,
        }),
        None => Ok(()),
    }
}

/// Encodes one request; its fields passed [`check_fits`], so the narrowing
/// casts are lossless.
fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    p.extend_from_slice(&req.id.to_le_bytes());
    p.extend_from_slice(&req.arrival_cycle.to_bits().to_le_bytes());
    p.extend_from_slice(&(req.prompt_len as u32).to_le_bytes());
    p.extend_from_slice(&(req.decode_len as u32).to_le_bytes());
    p.push(req.priority as u8);
    for deadline in [req.slo.ttft_s, req.slo.tpot_s] {
        match deadline {
            Some(s) => {
                p.push(1);
                p.extend_from_slice(&s.to_bits().to_le_bytes());
            }
            None => {
                p.push(0);
                p.extend_from_slice(&0u64.to_le_bytes());
            }
        }
    }
    match req.prefix {
        Some(prefix) => {
            p.push(1);
            p.extend_from_slice(&prefix.id.to_le_bytes());
            p.extend_from_slice(&(prefix.tokens as u32).to_le_bytes());
        }
        None => {
            p.push(0);
            p.extend_from_slice(&0u64.to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
        }
    }
    let name = req.task_name.as_bytes();
    p.extend_from_slice(&(name.len() as u16).to_le_bytes());
    p.extend_from_slice(name);
    p
}

fn encode_event(ev: &TraceEvent) -> (u8, Vec<u8>) {
    let mut p = Vec::with_capacity(48);
    match *ev {
        TraceEvent::Route { id, device, cycle } => {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&device.to_le_bytes());
            p.extend_from_slice(&cycle.to_bits().to_le_bytes());
            (KIND_ROUTE, p)
        }
        TraceEvent::Admit {
            device,
            cycle,
            id,
            resumed,
            reused_prefix_tokens,
            queue_depth,
        } => {
            p.extend_from_slice(&device.to_le_bytes());
            p.extend_from_slice(&cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&id.to_le_bytes());
            p.push(u8::from(resumed));
            p.extend_from_slice(&reused_prefix_tokens.to_le_bytes());
            p.extend_from_slice(&queue_depth.to_le_bytes());
            (KIND_ADMIT, p)
        }
        TraceEvent::Drop { device, cycle, id } => {
            p.extend_from_slice(&device.to_le_bytes());
            p.extend_from_slice(&cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&id.to_le_bytes());
            (KIND_DROP, p)
        }
        TraceEvent::Step {
            device,
            start_cycle,
            end_cycle,
            prefill_streams,
            decode_streams,
            prefill_tokens,
            queue_depth,
            active_streams,
            pool_reserved_bytes,
            completions,
        } => {
            p.extend_from_slice(&device.to_le_bytes());
            p.extend_from_slice(&start_cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&end_cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&prefill_streams.to_le_bytes());
            p.extend_from_slice(&decode_streams.to_le_bytes());
            p.extend_from_slice(&prefill_tokens.to_le_bytes());
            p.extend_from_slice(&queue_depth.to_le_bytes());
            p.extend_from_slice(&active_streams.to_le_bytes());
            p.extend_from_slice(&pool_reserved_bytes.to_le_bytes());
            p.extend_from_slice(&completions.to_le_bytes());
            (KIND_STEP, p)
        }
        TraceEvent::Preempt {
            device,
            cycle,
            victim,
            swapped_bytes,
        } => {
            p.extend_from_slice(&device.to_le_bytes());
            p.extend_from_slice(&cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&victim.to_le_bytes());
            p.extend_from_slice(&swapped_bytes.to_le_bytes());
            (KIND_PREEMPT, p)
        }
        TraceEvent::Handoff {
            id,
            from,
            to,
            cycle,
            arrival_cycle,
            bytes,
        } => {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&from.to_le_bytes());
            p.extend_from_slice(&to.to_le_bytes());
            p.extend_from_slice(&cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&arrival_cycle.to_bits().to_le_bytes());
            p.extend_from_slice(&bytes.to_le_bytes());
            (KIND_HANDOFF, p)
        }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Reads a [`RunTrace`] back from the frame format, validating the
/// header, every frame checksum, and the end-frame counts. Every failure
/// mode is a typed [`TraceError`] — corrupted or truncated streams never
/// panic.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    frame: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader, validating the magic/version header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] for a non-trace stream,
    /// [`TraceError::UnsupportedVersion`] for a future version,
    /// [`TraceError::Truncated`] if the header itself is cut short.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        read_fully(&mut src, &mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut version = [0u8; 4];
        read_fully(&mut src, &mut version)?;
        let version = u32::from_le_bytes(version);
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(TraceReader { src, frame: 0 })
    }

    /// Deserializes one recorded run.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] variant: I/O failures, checksum mismatches,
    /// malformed payloads, truncation before the end frame, or count
    /// disagreements between the meta frame, the end frame, and the
    /// frames actually present.
    pub fn read_run(&mut self) -> Result<RunTrace, TraceError> {
        let (kind, payload) = self.next_frame()?.ok_or(TraceError::Truncated)?;
        if kind != KIND_META {
            return Err(self.malformed());
        }
        let mut c = Cursor::new(&payload);
        let devices = c.u32().map_err(|_| self.malformed())?;
        let closed_flag = c.u8().map_err(|_| self.malformed())?;
        let concurrency = c.u64().map_err(|_| self.malformed())?;
        let declared_requests = c.u64().map_err(|_| self.malformed())?;
        let declared_events = c.u64().map_err(|_| self.malformed())?;
        if closed_flag > 1 || !c.done() {
            return Err(self.malformed());
        }

        let mut requests = Vec::new();
        let mut events = Vec::new();
        loop {
            let (kind, payload) = self.next_frame()?.ok_or(TraceError::Truncated)?;
            let mut c = Cursor::new(&payload);
            match kind {
                KIND_REQUEST => {
                    let req = decode_request(&mut c).map_err(|_| self.malformed())?;
                    if !c.done() {
                        return Err(self.malformed());
                    }
                    requests.push(req);
                }
                KIND_ROUTE | KIND_ADMIT | KIND_DROP | KIND_STEP | KIND_PREEMPT | KIND_HANDOFF => {
                    let ev = decode_event(kind, &mut c).map_err(|_| self.malformed())?;
                    if !c.done() {
                        return Err(self.malformed());
                    }
                    events.push(ev);
                }
                KIND_END => {
                    let end_requests = c.u64().map_err(|_| self.malformed())?;
                    let end_events = c.u64().map_err(|_| self.malformed())?;
                    if !c.done() {
                        return Err(self.malformed());
                    }
                    for (what, declared, observed) in [
                        ("request", declared_requests, requests.len() as u64),
                        ("request", end_requests, requests.len() as u64),
                        ("event", declared_events, events.len() as u64),
                        ("event", end_events, events.len() as u64),
                    ] {
                        if declared != observed {
                            return Err(TraceError::CountMismatch {
                                what,
                                declared,
                                observed,
                            });
                        }
                    }
                    return Ok(RunTrace {
                        workload: Workload {
                            requests,
                            closed_loop: (closed_flag == 1).then_some(concurrency as usize),
                        },
                        devices,
                        events,
                    });
                }
                KIND_META => return Err(self.malformed()),
                unknown => {
                    return Err(TraceError::UnknownFrameKind {
                        frame: self.frame - 1,
                        kind: unknown,
                    })
                }
            }
        }
    }

    /// Reads one frame, validating its checksum. `Ok(None)` means clean
    /// EOF at a frame boundary (the caller decides whether that is legal).
    fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, TraceError> {
        let mut kind = [0u8; 1];
        if self.src.read(&mut kind)? == 0 {
            return Ok(None);
        }
        let mut len = [0u8; 4];
        read_fully(&mut self.src, &mut len)?;
        let len = u32::from_le_bytes(len);
        if len > MAX_PAYLOAD {
            return Err(TraceError::Malformed { frame: self.frame });
        }
        let mut payload = vec![0u8; len as usize];
        read_fully(&mut self.src, &mut payload)?;
        let mut sum = [0u8; 4];
        read_fully(&mut self.src, &mut sum)?;
        let mut expect = fnv1a(&kind);
        for &b in &payload {
            expect ^= u32::from(b);
            expect = expect.wrapping_mul(0x0100_0193);
        }
        if u32::from_le_bytes(sum) != expect {
            return Err(TraceError::Corrupted { frame: self.frame });
        }
        self.frame += 1;
        Ok(Some((kind[0], payload)))
    }

    /// A [`TraceError::Malformed`] pointing at the frame just read.
    fn malformed(&self) -> TraceError {
        TraceError::Malformed {
            frame: self.frame.saturating_sub(1),
        }
    }
}

/// `read_exact` with EOF mapped to [`TraceError::Truncated`].
fn read_fully<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<(), TraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    })
}

/// Bounds-checked little-endian payload cursor; any overrun is reported
/// to the caller as `Err(())` and mapped to [`TraceError::Malformed`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
        let end = self.pos.checked_add(n).ok_or(())?;
        if end > self.bytes.len() {
            return Err(());
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ()> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ()> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ()> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ()> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ()> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_request(c: &mut Cursor<'_>) -> Result<Request, ()> {
    let id = c.u64()?;
    let arrival_cycle = c.f64()?;
    let prompt_len = c.u32()? as usize;
    let decode_len = c.u32()? as usize;
    let priority = match c.u8()? {
        0 => Priority::Batch,
        1 => Priority::Interactive,
        _ => return Err(()),
    };
    let mut deadlines = [None, None];
    for d in &mut deadlines {
        let flag = c.u8()?;
        let bits = c.u64()?;
        *d = match flag {
            0 => None,
            1 => Some(f64::from_bits(bits)),
            _ => return Err(()),
        };
    }
    let prefix_flag = c.u8()?;
    let prefix_id = c.u64()?;
    let prefix_tokens = c.u32()? as usize;
    let prefix = match prefix_flag {
        0 => None,
        1 => Some(SharedPrefix::new(prefix_id, prefix_tokens)),
        _ => return Err(()),
    };
    let name_len = c.u16()? as usize;
    let name = std::str::from_utf8(c.take(name_len)?).map_err(|_| ())?;
    Ok(Request {
        id,
        arrival_cycle,
        prompt_len,
        decode_len,
        task_name: intern_task_name(name),
        priority,
        slo: SloSpec {
            ttft_s: deadlines[0],
            tpot_s: deadlines[1],
        },
        prefix,
    })
}

fn decode_event(kind: u8, c: &mut Cursor<'_>) -> Result<TraceEvent, ()> {
    Ok(match kind {
        KIND_ROUTE => TraceEvent::Route {
            id: c.u64()?,
            device: c.u32()?,
            cycle: c.f64()?,
        },
        KIND_ADMIT => TraceEvent::Admit {
            device: c.u32()?,
            cycle: c.f64()?,
            id: c.u64()?,
            resumed: match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(()),
            },
            reused_prefix_tokens: c.u32()?,
            queue_depth: c.u32()?,
        },
        KIND_DROP => TraceEvent::Drop {
            device: c.u32()?,
            cycle: c.f64()?,
            id: c.u64()?,
        },
        KIND_STEP => TraceEvent::Step {
            device: c.u32()?,
            start_cycle: c.f64()?,
            end_cycle: c.f64()?,
            prefill_streams: c.u32()?,
            decode_streams: c.u32()?,
            prefill_tokens: c.u32()?,
            queue_depth: c.u32()?,
            active_streams: c.u32()?,
            pool_reserved_bytes: c.u64()?,
            completions: c.u32()?,
        },
        KIND_PREEMPT => TraceEvent::Preempt {
            device: c.u32()?,
            cycle: c.f64()?,
            victim: c.u64()?,
            swapped_bytes: c.u64()?,
        },
        KIND_HANDOFF => TraceEvent::Handoff {
            id: c.u64()?,
            from: c.u32()?,
            to: c.u32()?,
            cycle: c.f64()?,
            arrival_cycle: c.f64()?,
            bytes: c.u64()?,
        },
        _ => return Err(()),
    })
}

// ---------------------------------------------------------------------
// Convenience: byte-buffer and file round trips, stats
// ---------------------------------------------------------------------

/// Serializes a run to an in-memory byte buffer.
///
/// # Errors
///
/// Returns [`TraceError::FieldTooLarge`] if a request does not fit the
/// format, or [`TraceError::Io`] only on allocation-level failures
/// (writing to a `Vec` does not otherwise fail).
pub fn to_bytes(trace: &RunTrace) -> Result<Vec<u8>, TraceError> {
    let mut writer = TraceWriter::new(Vec::new())?;
    writer.write_run(trace)?;
    Ok(writer.into_inner())
}

/// Deserializes a run from an in-memory byte buffer.
///
/// # Errors
///
/// Any [`TraceError`] variant — see [`TraceReader::read_run`].
pub fn from_bytes(bytes: &[u8]) -> Result<RunTrace, TraceError> {
    TraceReader::new(bytes)?.read_run()
}

/// Serializes a run to a file at `path`.
///
/// # Errors
///
/// Returns [`TraceError::FieldTooLarge`] (before writing any frame) if a
/// request does not fit the format, or [`TraceError::Io`] if the file
/// cannot be created or written.
pub fn save_trace(path: &Path, trace: &RunTrace) -> Result<(), TraceError> {
    let mut writer = TraceWriter::new(BufWriter::new(File::create(path)?))?;
    writer.write_run(trace)
}

/// Deserializes a run from a file at `path`.
///
/// # Errors
///
/// Any [`TraceError`] variant — see [`TraceReader::read_run`].
pub fn load_trace(path: &Path) -> Result<RunTrace, TraceError> {
    TraceReader::new(BufReader::new(File::open(path)?))?.read_run()
}

/// CLI-friendly summary of one recorded trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Requests in the recorded workload.
    pub requests: usize,
    /// Fleet width of the recorded run.
    pub devices: u32,
    /// Total recorded events.
    pub events: usize,
    /// Executed scheduler steps.
    pub steps: u64,
    /// Admissions (fresh and resumed).
    pub admissions: u64,
    /// Preemptions.
    pub preemptions: u64,
    /// Recorded span in seconds (last event).
    pub span_seconds: f64,
    /// Serialized size in bytes.
    pub encoded_bytes: u64,
}

impl TraceStats {
    /// Collects the summary of a trace whose serialized form occupies
    /// `encoded_bytes`.
    #[must_use]
    pub fn collect(trace: &RunTrace, encoded_bytes: u64) -> Self {
        TraceStats {
            requests: trace.workload.requests.len(),
            devices: trace.devices,
            events: trace.events.len(),
            steps: trace.step_count(),
            admissions: trace.admission_count(),
            preemptions: trace.preemption_count(),
            span_seconds: trace.span_cycles() / CLOCK_HZ,
            encoded_bytes,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} requests on {} device(s), {} events ({} steps, {} admissions, {} preemptions) over {:.1} s, {:.1} KiB encoded",
            self.requests,
            self.devices,
            self.events,
            self.steps,
            self.admissions,
            self.preemptions,
            self.span_seconds,
            self.encoded_bytes as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> RunTrace {
        let task = mcbp_workloads::Task::cola();
        let requests = vec![
            Request::from_task(0, &task, 100.0).with_priority(Priority::Interactive),
            Request::from_task(1, &task, f64::INFINITY)
                .with_prefix(SharedPrefix::new(7, 16))
                .with_slo(SloSpec::interactive(0.5, 0.05)),
        ];
        RunTrace {
            workload: Workload {
                requests,
                closed_loop: Some(2),
            },
            devices: 3,
            events: vec![
                TraceEvent::Route {
                    id: 0,
                    device: 2,
                    cycle: 100.0,
                },
                TraceEvent::Admit {
                    device: 2,
                    cycle: 110.0,
                    id: 0,
                    resumed: false,
                    reused_prefix_tokens: 16,
                    queue_depth: 1,
                },
                TraceEvent::Step {
                    device: 2,
                    start_cycle: 110.0,
                    end_cycle: 500.0,
                    prefill_streams: 1,
                    decode_streams: 2,
                    prefill_tokens: 64,
                    queue_depth: 0,
                    active_streams: 2,
                    pool_reserved_bytes: 4096,
                    completions: 1,
                },
                TraceEvent::Preempt {
                    device: 2,
                    cycle: 600.0,
                    victim: 0,
                    swapped_bytes: 2048,
                },
                TraceEvent::Handoff {
                    id: 0,
                    from: 2,
                    to: 1,
                    cycle: 650.0,
                    arrival_cycle: 660.0,
                    bytes: 8192,
                },
                TraceEvent::Drop {
                    device: 0,
                    cycle: 700.0,
                    id: 1,
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let trace = tiny_trace();
        let bytes = to_bytes(&trace).expect("serialize");
        let back = from_bytes(&bytes).expect("deserialize");
        assert_eq!(trace, back);
        // Infinite arrivals survived the bits round trip.
        assert!(back.workload.requests[1].arrival_cycle.is_infinite());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = to_bytes(&tiny_trace()).expect("serialize");
        bytes[0] ^= 0xFF;
        assert!(matches!(from_bytes(&bytes), Err(TraceError::BadMagic)));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = to_bytes(&tiny_trace()).expect("serialize");
        bytes[8] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = to_bytes(&tiny_trace()).expect("serialize");
        for cut in [bytes.len() - 1, bytes.len() / 2, 13, 9] {
            assert!(
                matches!(from_bytes(&bytes[..cut]), Err(TraceError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        let bytes = to_bytes(&tiny_trace()).expect("serialize");
        // Flip one payload byte in every frame region past the header.
        let mut seen_corrupt = 0;
        for i in 12..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x10;
            match from_bytes(&evil) {
                Err(
                    TraceError::Corrupted { .. }
                    | TraceError::Malformed { .. }
                    | TraceError::UnknownFrameKind { .. }
                    | TraceError::Truncated
                    | TraceError::CountMismatch { .. },
                ) => seen_corrupt += 1,
                Err(other) => panic!("unexpected error at byte {i}: {other}"),
                Ok(back) => {
                    panic!(
                        "bit flip at byte {i} went unnoticed (decoded {} events)",
                        back.events.len()
                    )
                }
            }
        }
        assert!(seen_corrupt > 0);
    }

    #[test]
    fn end_frame_count_mismatch_is_typed() {
        let trace = tiny_trace();
        let bytes = to_bytes(&trace).expect("serialize");
        // Rebuild the stream dropping the last event frame but keeping
        // the original meta/end counts: reader must flag the mismatch.
        let mut writer = TraceWriter::new(Vec::new()).expect("writer");
        let mut fewer = trace.clone();
        fewer.events.pop();
        writer.write_run(&fewer).expect("write");
        let mut forged = writer.into_inner();
        // Replace the forged end frame's counts with the original's
        // (the end frame is the last 1 + 4 + 16 + 4 bytes).
        let tail = forged.len() - 25;
        forged.truncate(tail);
        forged.extend_from_slice(&bytes[bytes.len() - 25..]);
        match from_bytes(&forged) {
            Err(TraceError::CountMismatch {
                what,
                declared,
                observed,
            }) => {
                assert_eq!(what, "event");
                assert_eq!(declared, 6);
                assert_eq!(observed, 5);
            }
            other => panic!("expected count mismatch, got {other:?}"),
        }
    }

    #[test]
    fn stats_summarize_the_trace() {
        let trace = tiny_trace();
        let bytes = to_bytes(&trace).expect("serialize");
        let stats = TraceStats::collect(&trace, bytes.len() as u64);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.devices, 3);
        assert_eq!(stats.events, 6);
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.admissions, 1);
        assert_eq!(stats.preemptions, 1);
        assert!(stats.span_seconds > 0.0);
        let line = stats.to_string();
        assert!(line.contains("2 requests"), "{line}");
    }

    #[test]
    fn file_round_trip() {
        let trace = tiny_trace();
        let dir = std::env::temp_dir();
        let path = dir.join("mcbp_trace_format_test.mcbptrc");
        save_trace(&path, &trace).expect("save");
        let back = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, back);
    }

    /// Token counts are `u32` and the task-name length `u16` on disk: a
    /// value past either is a typed error, never a silent truncation that
    /// decodes as a different request.
    #[test]
    fn oversized_request_fields_are_typed_not_truncated() {
        let too_long = u32::MAX as usize + 1;
        for field in [
            "prompt_len",
            "decode_len",
            "prefix tokens",
            "task-name length",
        ] {
            let mut trace = tiny_trace();
            let req = &mut trace.workload.requests[1];
            match field {
                "prompt_len" => req.prompt_len = too_long,
                "decode_len" => req.decode_len = too_long,
                "prefix tokens" => req.prefix = Some(SharedPrefix::new(7, too_long)),
                _ => req.task_name = Box::leak("x".repeat(1 << 16).into_boxed_str()),
            }
            let err = to_bytes(&trace).expect_err(field);
            assert!(
                matches!(err, TraceError::FieldTooLarge { request: 1, field: f, .. } if f == field),
                "{field}: {err}"
            );
            // Nothing but the header reaches the sink.
            let mut writer = TraceWriter::new(Vec::new()).expect("header");
            assert!(writer.write_run(&trace).is_err(), "{field}");
            assert_eq!(writer.into_inner().len(), TRACE_MAGIC.len() + 4, "{field}");
        }
        let path = std::env::temp_dir().join("mcbp_trace_format_oversized.mcbptrc");
        let mut trace = tiny_trace();
        trace.workload.requests[0].prompt_len = too_long;
        let saved = save_trace(&path, &trace);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            saved,
            Err(TraceError::FieldTooLarge {
                request: 0,
                field: "prompt_len",
                value,
            }) if value == too_long
        ));
    }
}
