//! Output side: SAM text is formatted by the workspace's own
//! [`SamTextSink`], hashed as it streams out, and discarded.

use gx_genome::{ReferenceGenome, SamRecord};
use gx_pipeline::{RecordSink, SamTextSink};
use std::io::{self, BufWriter, Write};
use std::time::Instant;

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A 64-bit digest of a byte stream plus its length. Independent of how
/// the stream is split into `write` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamDigest {
    /// Hash of the bytes.
    pub hash: u64,
    /// Number of bytes.
    pub bytes: u64,
}

/// A `Write` that hashes eight bytes at a time and keeps nothing else.
#[derive(Debug, Default)]
pub struct DigestWriter {
    hash: u64,
    tail: [u8; 8],
    tail_len: usize,
    bytes: u64,
}

impl DigestWriter {
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(23) ^ word).wrapping_mul(MUL);
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> SamDigest {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let mut h = (self.hash.rotate_left(23) ^ u64::from_le_bytes(last)).wrapping_mul(MUL);
        h ^= self.bytes;
        h = (h ^ (h >> 31)).wrapping_mul(MUL);
        SamDigest {
            hash: h ^ (h >> 29),
            bytes: self.bytes,
        }
    }
}

impl Write for DigestWriter {
    fn write(&mut self, mut buf: &[u8]) -> io::Result<usize> {
        let n = buf.len();
        self.bytes += n as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(buf.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&buf[..take]);
            self.tail_len += take;
            buf = &buf[take..];
            if self.tail_len < 8 {
                return Ok(n);
            }
            let word = u64::from_le_bytes(self.tail);
            self.mix(word);
            self.tail_len = 0;
        }
        let mut chunks = buf.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")));
        }
        let rest = chunks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The benchmark's record sink: the workspace's [`SamTextSink`] writing
/// into a [`DigestWriter`], plus sink-side timestamps.
pub struct DigestSink {
    sam: SamTextSink<BufWriter<DigestWriter>>,
    /// When the first record arrived.
    pub first_record: Option<Instant>,
    /// When the latest record arrived (kept only when tracing).
    pub last_record: Option<Instant>,
    trace: bool,
}

impl DigestSink {
    /// A sink whose output starts with `genome`'s SAM header. With `trace`,
    /// it also stamps the latest record's arrival.
    pub fn new(genome: &ReferenceGenome, trace: bool) -> DigestSink {
        DigestSink {
            sam: SamTextSink::with_header(
                genome,
                BufWriter::with_capacity(1 << 16, DigestWriter::default()),
            )
            .expect("a digest writer cannot fail"),
            first_record: None,
            last_record: None,
            trace,
        }
    }

    /// Flushes the SAM text and returns its digest.
    pub fn finish(self) -> SamDigest {
        let buf = self.sam.into_inner().expect("a digest writer cannot fail");
        buf.into_inner()
            .map_err(|_| "flush into a digest writer cannot fail")
            .expect("a digest writer cannot fail")
            .finish()
    }
}

impl RecordSink for DigestSink {
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
        if self.first_record.is_none() {
            self.first_record = Some(Instant::now());
        } else if self.trace {
            self.last_record = Some(Instant::now());
        }
        self.sam.write_record(rec)
    }
}
