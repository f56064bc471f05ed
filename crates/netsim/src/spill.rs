//! Chunked spill backend for streaming traces.
//!
//! A streaming [`crate::trace::Trace`] appends each *finalized* packet
//! record (delivered or dropped) to a [`ChunkLog`]: records accumulate in
//! an open chunk, chunks are sealed (sorted by `(i(p), id)`) into a small
//! in-memory ring, and when the ring overflows the oldest chunk is encoded
//! through a fixed-layout little-endian codec into an anonymous spill file
//! in the OS temp directory. Reading the log back is a k-way merge over
//! one cursor per chunk; spilled chunks are read with positioned reads
//! (`pread`) over a single shared file descriptor, so memory stays
//! `O(chunks × read-buffer)` no matter how many records were logged.
//!
//! The codec is general enough to round-trip every field of a
//! [`PacketRecord`] — drop causes and per-hop detail included — even
//! though streaming capture only produces end-to-end records; synthetic
//! traces and future per-hop spilling reuse it unchanged.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::id::{FlowId, NodeId};
use crate::packet::PacketKind;
use crate::time::{Dur, SimTime};
use crate::trace::{DropCause, HopRecord, PacketRecord};

/// Default records per chunk. Large enough that a multi-million-packet run
/// spills only hundreds of chunks (each merge cursor holds a small read
/// buffer), small enough that the in-memory ring stays a few megabytes.
pub const DEFAULT_CHUNK_RECORDS: usize = 8_192;
/// Default sealed chunks kept in memory before the oldest spills to disk.
pub const DEFAULT_RING_CHUNKS: usize = 4;

/// Bytes fetched per positioned read while merging a spilled chunk.
const READ_BUF: usize = 16 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// One spilled chunk's location inside the spill file.
struct SpilledChunk {
    off: u64,
    bytes: u64,
    records: u32,
}

/// The spill file plus the directory of chunks written into it. The file
/// lives in the OS temp directory and is deleted on drop.
struct SpillFile {
    file: File,
    path: PathBuf,
    write_off: u64,
    chunks: Vec<SpilledChunk>,
}

impl SpillFile {
    fn create() -> Self {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ups-trace-{}-{}.spill", std::process::id(), seq));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create trace spill file"); // lint:allow(panic-path): a failed trace spill cannot be recovered mid-run; abort is correct
        SpillFile {
            file,
            path,
            write_off: 0,
            chunks: Vec::new(),
        }
    }

    fn append_chunk(&mut self, chunk: &[(u64, PacketRecord)], buf: &mut Vec<u8>) {
        let _t = ups_obs::timer(ups_obs::Phase::SpillIo);
        buf.clear();
        for (id, rec) in chunk {
            encode_record(buf, *id, rec);
        }
        self.file.write_all(buf).expect("write trace spill chunk"); // lint:allow(panic-path): a failed trace spill cannot be recovered mid-run; abort is correct
        ups_obs::count(ups_obs::Counter::SpillBytes, buf.len() as u64);
        self.chunks.push(SpilledChunk {
            off: self.write_off,
            bytes: buf.len() as u64,
            records: chunk.len() as u32,
        });
        self.write_off += buf.len() as u64;
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Append-only log of finalized records with a bounded-memory reader.
pub(crate) struct ChunkLog {
    chunk_cap: usize,
    ring_cap: usize,
    /// The open chunk, in finalization order (unsorted).
    pending: Vec<(u64, PacketRecord)>,
    /// Sealed chunks, each sorted by `(injected, id)`; oldest at the front.
    sealed: VecDeque<Vec<(u64, PacketRecord)>>,
    spill: Option<SpillFile>,
    len: u64,
}

impl ChunkLog {
    pub(crate) fn new(chunk_cap: usize, ring_cap: usize) -> Self {
        assert!(chunk_cap > 0 && ring_cap > 0, "spill caps must be positive");
        ChunkLog {
            chunk_cap,
            ring_cap,
            pending: Vec::new(),
            sealed: VecDeque::new(),
            spill: None,
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, id: u64, rec: PacketRecord) {
        ups_obs::count(ups_obs::Counter::TraceRecordsFinalized, 1);
        self.pending.push((id, rec));
        self.len += 1;
        if self.pending.len() >= self.chunk_cap {
            let mut chunk = std::mem::take(&mut self.pending);
            chunk.sort_unstable_by_key(|(id, r)| (r.injected, *id));
            ups_obs::count(ups_obs::Counter::SpillChunksSealed, 1);
            self.sealed.push_back(chunk);
            while self.sealed.len() > self.ring_cap {
                let oldest = self.sealed.pop_front().expect("ring not empty"); // lint:allow(panic-path): guarded by the ring occupancy check above
                let spill = self.spill.get_or_insert_with(SpillFile::create);
                let mut buf = Vec::with_capacity(READ_BUF);
                spill.append_chunk(&oldest, &mut buf);
            }
        }
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    pub(crate) fn has_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Linear search over the in-memory portion (random access for small
    /// runs; the caller is responsible for refusing once data spilled).
    pub(crate) fn find(&self, id: u64) -> Option<&PacketRecord> {
        self.pending
            .iter()
            .chain(self.sealed.iter().flatten())
            .find(|(i, _)| *i == id)
            .map(|(_, r)| r)
    }

    /// One sorted cursor per chunk (spilled, sealed, and the open chunk),
    /// for the trace's k-way merge.
    pub(crate) fn cursors(&self) -> Vec<LogCursor<'_>> {
        let mut out = Vec::new();
        if let Some(spill) = &self.spill {
            for c in &spill.chunks {
                out.push(LogCursor::Spilled(ChunkCursor {
                    file: &spill.file,
                    next_off: c.off,
                    end_off: c.off + c.bytes,
                    remaining: c.records,
                    buf: Vec::new(),
                    pos: 0,
                }));
            }
        }
        for chunk in &self.sealed {
            out.push(LogCursor::Mem(chunk.iter()));
        }
        let mut open: Vec<(u64, PacketRecord)> = self.pending.clone();
        open.sort_unstable_by_key(|(id, r)| (r.injected, *id));
        out.push(LogCursor::Owned(open.into_iter()));
        out
    }
}

impl std::fmt::Debug for ChunkLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkLog")
            .field("len", &self.len)
            .field("sealed_chunks", &self.sealed.len())
            .field(
                "spilled_chunks",
                &self.spill.as_ref().map_or(0, |s| s.chunks.len()),
            )
            .finish()
    }
}

/// A sorted stream of `(id, record)` out of one chunk.
pub(crate) enum LogCursor<'a> {
    Spilled(ChunkCursor<'a>),
    Mem(std::slice::Iter<'a, (u64, PacketRecord)>),
    Owned(std::vec::IntoIter<(u64, PacketRecord)>),
}

impl LogCursor<'_> {
    pub(crate) fn next(&mut self) -> Option<(u64, PacketRecord)> {
        match self {
            LogCursor::Spilled(c) => c.next(),
            LogCursor::Mem(it) => it.next().map(|(id, r)| (*id, r.clone())),
            LogCursor::Owned(it) => it.next(),
        }
    }
}

/// Buffered positioned-read cursor over one spilled chunk. All cursors
/// share the spill file's descriptor; `read_at` never touches the shared
/// seek position, so hundreds of cursors coexist on one open file.
pub(crate) struct ChunkCursor<'a> {
    file: &'a File,
    next_off: u64,
    end_off: u64,
    remaining: u32,
    buf: Vec<u8>,
    pos: usize,
}

impl ChunkCursor<'_> {
    /// Ensure at least `need` decoded-but-unconsumed bytes are buffered.
    fn refill(&mut self, need: usize) {
        if self.buf.len() - self.pos >= need {
            return;
        }
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < need {
            let left = (self.end_off - self.next_off) as usize;
            assert!(left > 0, "truncated trace spill chunk");
            let take = left.min(READ_BUF.max(need - self.buf.len()));
            let old = self.buf.len();
            self.buf.resize(old + take, 0);
            let n = self
                .file
                .read_at(&mut self.buf[old..], self.next_off)
                .expect("read trace spill chunk"); // lint:allow(panic-path): a truncated spill chunk is unrecoverable corruption; abort is correct
            assert!(n > 0, "unexpected EOF in trace spill chunk");
            self.buf.truncate(old + n);
            self.next_off += n as u64;
        }
    }

    fn next(&mut self) -> Option<(u64, PacketRecord)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.refill(4);
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize; // lint:allow(panic-path): framing invariant: offsets bounded by the encoder-written chunk; 4-byte try_into cannot fail
        self.refill(4 + len);
        // lint:allow(panic-path): framing invariant: refill() buffered the whole length-prefixed record
        let body = &self.buf[self.pos + 4..self.pos + 4 + len];
        // lint:allow(panic-path): a corrupt spill record is unrecoverable mid-merge; abort with the decoder's message
        let rec = decode_record(body).unwrap_or_else(|e| panic!("corrupt trace spill chunk: {e}"));
        self.pos += 4 + len;
        Some(rec)
    }
}

/// Append one length-prefixed record to `buf` (little-endian throughout).
pub(crate) fn encode_record(buf: &mut Vec<u8>, id: u64, r: &PacketRecord) {
    let start = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes()); // length, patched below
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&r.flow.0.to_le_bytes());
    buf.extend_from_slice(&r.size.to_le_bytes());
    buf.push(match r.kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
    });
    let mut flags = 0u8;
    if r.exited.is_some() {
        flags |= 1;
    }
    if r.dropped {
        flags |= 2;
    }
    flags |= match r.drop_cause {
        None => 0u8,
        Some(DropCause::Buffer) => 1,
        Some(DropCause::DeadLink) => 2,
    } << 2;
    buf.push(flags);
    buf.extend_from_slice(&r.injected.as_ps().to_le_bytes());
    if let Some(o) = r.exited {
        buf.extend_from_slice(&o.as_ps().to_le_bytes());
    }
    buf.extend_from_slice(&r.total_wait.as_ps().to_le_bytes());
    buf.extend_from_slice(&(r.path.len() as u32).to_le_bytes());
    for n in r.path.iter() {
        buf.extend_from_slice(&n.0.to_le_bytes());
    }
    buf.extend_from_slice(&(r.hops.len() as u32).to_le_bytes());
    for h in &r.hops {
        buf.extend_from_slice(&h.node.0.to_le_bytes());
        buf.extend_from_slice(&h.arrived.as_ps().to_le_bytes());
        buf.extend_from_slice(&h.tx_start.as_ps().to_le_bytes());
        buf.extend_from_slice(&h.waited.as_ps().to_le_bytes());
    }
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes()); // lint:allow(panic-path): start+4 <= buf.len() by the encoder's own length accounting
}

/// Bytes one encoded [`HopRecord`] occupies: node, arrived, tx_start,
/// waited.
const HOP_BYTES: usize = 4 + 3 * 8;

/// A bounds-checked little-endian reader over one record body. Every
/// read checks the bytes left first, so corrupt input is an `Err`, never
/// a panic or an allocation sized by an unchecked length prefix.
struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!(
                "trace spill record truncated in {what}: {n} bytes needed, {} left",
                self.rest.len()
            ));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], String> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(format!(
                "trace spill record truncated in {what}: {N} bytes needed, {} left",
                self.rest.len()
            ));
        };
        self.rest = tail;
        Ok(*head)
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, String> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }
    /// A `u32` element count followed by that many `width`-byte
    /// elements: the elements' bytes, checked against the bytes left
    /// before the caller allocates anything for them.
    fn counted(&mut self, width: usize, what: &'static str) -> Result<&'a [u8], String> {
        let n = self.u32(what)? as usize;
        let bytes = n.checked_mul(width).ok_or("trace spill length overflows")?;
        self.take(bytes, what)
    }
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decode one record body (no length prefix) produced by [`encode_record`].
/// Malformed input — a short buffer, a bad tag, an oversized count or
/// trailing bytes — is an `Err` naming what was wrong.
pub(crate) fn decode_record(bytes: &[u8]) -> Result<(u64, PacketRecord), String> {
    let mut d = Decoder { rest: bytes };
    let id = d.u64("id")?;
    let flow = FlowId(d.u64("flow")?);
    let size = d.u32("size")?;
    let kind = match d.u8("kind")? {
        0 => PacketKind::Data,
        1 => PacketKind::Ack,
        k => return Err(format!("bad packet kind tag {k} in trace spill")),
    };
    let flags = d.u8("flags")?;
    let drop_cause = match (flags >> 2) & 3 {
        0 => None,
        1 => Some(DropCause::Buffer),
        2 => Some(DropCause::DeadLink),
        c => return Err(format!("bad drop cause tag {c} in trace spill")),
    };
    let injected = SimTime::from_ps(d.u64("injected")?);
    let exited = if flags & 1 != 0 {
        Some(SimTime::from_ps(d.u64("exited")?))
    } else {
        None
    };
    let total_wait = Dur::from_ps(d.u64("total_wait")?);
    let path: std::sync::Arc<[NodeId]> = d
        .counted(4, "path")?
        .chunks_exact(4)
        .map(|b| NodeId(le_u32(b)))
        .collect();
    let hops = d
        .counted(HOP_BYTES, "hops")?
        .chunks_exact(HOP_BYTES)
        .map(|b| HopRecord {
            node: NodeId(le_u32(b)),
            arrived: SimTime::from_ps(le_u64(&b[4..])),
            tx_start: SimTime::from_ps(le_u64(&b[12..])),
            waited: Dur::from_ps(le_u64(&b[20..])),
        })
        .collect();
    if !d.rest.is_empty() {
        return Err(format!(
            "{} trailing bytes in trace spill record",
            d.rest.len()
        ));
    }
    Ok((
        id,
        PacketRecord {
            flow,
            size,
            kind,
            path,
            injected,
            exited,
            total_wait,
            dropped: flags & 2 != 0,
            drop_cause,
            hops,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn rec(injected_us: u64, exited: Option<u64>, cause: Option<DropCause>) -> PacketRecord {
        let path: Arc<[NodeId]> = vec![NodeId(0), NodeId(7), NodeId(2)].into();
        PacketRecord {
            flow: FlowId(3),
            size: 1500,
            kind: PacketKind::Data,
            path,
            injected: SimTime::from_us(injected_us),
            exited: exited.map(SimTime::from_us),
            total_wait: Dur::from_ns(42),
            dropped: cause.is_some(),
            drop_cause: cause,
            hops: vec![HopRecord {
                node: NodeId(7),
                arrived: SimTime::from_us(injected_us + 1),
                tx_start: SimTime::from_us(injected_us + 2),
                waited: Dur::from_us(1),
            }],
        }
    }

    /// One record of each shape the codec distinguishes.
    fn shapes() -> [PacketRecord; 4] {
        [
            rec(5, Some(9), None),
            rec(5, None, Some(DropCause::Buffer)),
            rec(5, None, Some(DropCause::DeadLink)),
            PacketRecord {
                hops: Vec::new(),
                kind: PacketKind::Ack,
                ..rec(0, Some(1), None)
            },
        ]
    }

    /// `r` encoded under id 77, without its length prefix.
    fn body(r: &PacketRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_record(&mut buf, 77, r);
        buf.split_off(4)
    }

    #[test]
    fn codec_round_trips_all_fields() {
        for r in shapes() {
            let mut buf = Vec::new();
            encode_record(&mut buf, 77, &r);
            let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, buf.len());
            let (id, back) = decode_record(&buf[4..]).unwrap();
            assert_eq!(id, 77);
            assert_eq!(back, r);
        }
    }

    #[test]
    fn huge_length_prefixes_are_errors_not_allocations() {
        let good = body(&rec(5, Some(9), None));
        // id, flow, size, kind, flags, injected, exited, total_wait.
        let path_at = 8 + 8 + 4 + 1 + 1 + 8 + 8 + 8;
        let hops_at = path_at + 4 + 3 * 4;
        for (at, what) in [(path_at, "path"), (hops_at, "hops")] {
            // u32::MAX elements would be a 16 GiB (path) or 112 GiB
            // (hops) allocation if the count were trusted.
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = decode_record(&bad).unwrap_err();
            assert!(err.starts_with(&format!("trace spill record truncated in {what}")));
        }
    }

    #[test]
    fn malformed_bodies_are_errors() {
        let good = body(&rec(5, Some(9), None));
        let err = |b: &[u8]| decode_record(b).unwrap_err();
        assert!(err(&[]).contains("truncated in id"));
        let mut bad_kind = good.clone();
        bad_kind[20] = 9;
        assert_eq!(err(&bad_kind), "bad packet kind tag 9 in trace spill");
        let mut bad_cause = good.clone();
        bad_cause[21] |= 3 << 2;
        assert_eq!(err(&bad_cause), "bad drop cause tag 3 in trace spill");
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(err(&trailing), "1 trailing bytes in trace spill record");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        #[test]
        fn truncated_and_mutated_records_never_panic(
            pick in 0usize..4,
            cut in 0usize..1_000,
            at in (0usize..1_000, 0usize..1_000),
            with in (0u8..=255, 0u8..=255),
        ) {
            let good = body(&shapes()[pick]);
            // Every strict prefix ends inside some field: always an Err.
            let len = cut % good.len();
            prop_assert!(decode_record(&good[..len]).is_err());
            // Two byte overwrites anywhere (tags, flags, counts, payload):
            // an Err or a record — returning at all is the property.
            let mut bytes = good.clone();
            let n = bytes.len();
            bytes[at.0 % n] = with.0;
            bytes[at.1 % n] = with.1;
            let _ = decode_record(&bytes);
        }
    }

    #[test]
    fn log_spills_and_merges_in_injection_order() {
        // 3-record chunks, ring of 1: 10 records force spilled chunks.
        let mut log = ChunkLog::new(3, 1);
        // Finalization order is NOT injection order (like a real run).
        for id in [4u64, 2, 9, 7, 1, 0, 8, 3, 6, 5] {
            log.push(id, rec(id, Some(id + 1), None));
        }
        assert_eq!(log.len(), 10);
        assert!(log.has_spilled());
        let mut cursors = log.cursors();
        let mut out = Vec::new();
        // Naive single-cursor drain per chunk, then merge by sorting —
        // the trace layer owns the heap merge; here we check chunk
        // contents and codec fidelity.
        for c in &mut cursors {
            while let Some((id, r)) = c.next() {
                assert_eq!(r.injected, SimTime::from_us(id));
                out.push(id);
            }
        }
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn find_sees_memory_resident_records() {
        let mut log = ChunkLog::new(4, 2);
        log.push(1, rec(1, Some(2), None));
        assert!(log.find(1).is_some());
        assert!(log.find(2).is_none());
    }
}
