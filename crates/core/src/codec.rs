//! The one codec for untrusted bytes, shared by the `.sbrl` artifact format
//! ([`persist`](crate::persist)) and the serving wire protocol
//! ([`wire`](crate::wire)).
//!
//! Both formats are little-endian, and both decode bytes that an attacker
//! may have shaped (a file on disk, a frame off a socket). So both read
//! through the same bounds-checked `ByteReader`: every read validates its
//! length *before* touching the data, so decoding cannot panic and cannot
//! allocate from an unvalidated length field. The `untrusted_reader` lint
//! rule keeps this file, `persist.rs` and `wire.rs` panic- and index-free.
//! A failure is a `CodecError`, which converts through `From` into the
//! format's own typed error ([`PersistError`](crate::PersistError) or
//! [`WireError`](crate::WireError)).
//!
//! The formats differ in their length width: `.sbrl` stores counts and
//! string lengths as `u64`, the wire as `u32`. That difference stays with
//! the callers. They read a length at their own width and hand it to
//! `ByteReader::count` or `ByteReader::string`, which validate it.

/// A decode failure, before `From` maps it into `PersistError` or
/// `WireError`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CodecError {
    /// The bytes ended before a declared structure was complete.
    Truncated {
        /// The region being read (a section tag, `"payload"`, …).
        context: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually left.
        available: usize,
    },
    /// The bytes are present but violate the layout.
    Malformed(String),
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xedb88320`) — the PNG/zlib
/// checksum, hand-rolled bitwise so both formats stay dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    buf.reserve(xs.len() * 8);
    for &x in xs {
        put_f64(buf, x);
    }
}

/// A bounds-checked cursor over untrusted bytes. Every read goes through
/// [`take`](Self::take), which checks the length before touching the data.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `context` names the region in its errors.
    pub(crate) fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader { buf, pos: 0, context }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn truncated(&self, needed: usize) -> CodecError {
        CodecError::Truncated { context: self.context, needed, available: self.remaining() }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CodecError::Malformed(format!("length overflow in {}", self.context)))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.truncated(n))?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a strict boolean byte: 0 or 1, anything else is malformed.
    pub(crate) fn bool(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => {
                Err(CodecError::Malformed(format!("{what}: boolean byte must be 0 or 1, got {b}")))
            }
        }
    }

    /// Validates a `count` the caller has already read: `count` elements of
    /// `elem_bytes` each must still fit in the remaining bytes. This is the
    /// OOM guard that turns a corrupted length field into `Truncated`, not a
    /// multi-gigabyte allocation.
    pub(crate) fn count(&self, count: usize, elem_bytes: usize) -> Result<usize, CodecError> {
        let needed = count.checked_mul(elem_bytes.max(1)).ok_or_else(|| {
            CodecError::Malformed(format!("count {count} overflows in {}", self.context))
        })?;
        if needed > self.remaining() {
            return Err(self.truncated(needed));
        }
        Ok(count)
    }

    pub(crate) fn f64s(&mut self, count: usize) -> Result<Vec<f64>, CodecError> {
        let needed = count.checked_mul(8).ok_or_else(|| {
            CodecError::Malformed(format!("f64 count {count} overflows in {}", self.context))
        })?;
        let bytes = self.take(needed)?;
        let mut out = Vec::with_capacity(count);
        for chunk in bytes.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(chunk);
            out.push(f64::from_le_bytes(a));
        }
        Ok(out)
    }

    /// Reads a UTF-8 string of `len` bytes (a length the caller has read).
    pub(crate) fn string(&mut self, len: usize) -> Result<String, CodecError> {
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Malformed(format!("non-UTF-8 string in {}", self.context)))
    }

    /// Asserts the bytes were consumed exactly: trailing bytes mean the
    /// writer and reader disagree about the layout.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Malformed(format!("{n} trailing bytes in {}", self.context))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn reader_reports_truncation_with_counts() {
        let mut r = ByteReader::new(&[1, 2, 3], "unit");
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        let err = r.take(5).unwrap_err();
        assert_eq!(err, CodecError::Truncated { context: "unit", needed: 5, available: 1 });
    }

    #[test]
    fn reader_count_guards_allocation_against_absurd_lengths() {
        // A 1 GiB element count inside an 8-byte buffer must become a typed
        // Truncated error before any allocation happens.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 30);
        let mut r = ByteReader::new(&buf, "unit");
        let count = usize::try_from(r.u64().unwrap()).unwrap();
        let err = r.count(count, 8).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { context: "unit", .. }));
    }
}
