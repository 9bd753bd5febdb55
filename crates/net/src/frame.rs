//! Length-prefixed frames with a CRC32 trailer.
//!
//! On the wire, one frame is:
//!
//! ```text
//! u32 LE  body length N          (bounded by MAX_FRAME)
//! [u8;N]  body                   (see proto.rs for the body layout)
//! u32 LE  CRC32 (IEEE) of body
//! ```
//!
//! The length prefix is validated *before* any allocation, and the CRC
//! before any byte of the body is interpreted, so a corrupted or
//! truncated stream fails closed: every [`FrameError`] is
//! connection-fatal by design (there is no way to resynchronize a
//! byte stream after a bad length), while *semantic* problems inside a
//! well-framed body are request-level ([`crate::proto::DecodeError`])
//! and answered with a typed error response instead.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use std::io::{Read, Write};

/// Hard bound on one frame's body, bytes. A 4-channel 1024×4096 f32
/// field is 64 MiB; frames beyond that are rejected without
/// allocation (a hostile length prefix cannot OOM the server).
pub const MAX_FRAME: usize = 64 << 20;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/stream error (includes EOF mid-frame).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge {
        /// Claimed body length.
        len: usize,
        /// The enforced bound.
        max: usize,
    },
    /// The CRC32 trailer does not match the received body.
    CrcMismatch {
        /// CRC computed over the received body.
        computed: u32,
        /// CRC carried by the frame.
        received: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body {len} B exceeds limit {max} B")
            }
            FrameError::CrcMismatch { computed, received } => write!(
                f,
                "frame CRC mismatch: computed {computed:#010x}, received {received:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is an idle read timing out (the server's shutdown
    /// poll), as opposed to a real protocol violation.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }

    /// Whether this is the peer closing the connection cleanly between
    /// frames (EOF at a frame boundary).
    pub fn is_clean_eof(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
        )
    }
}

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup tables
/// for slicing-by-8, built at compile time — no runtime init, no
/// dependency. `CRC_TABLES[0]` is the classic one-byte table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` and then `k` zero
/// bytes, which is what lets eight bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `data`, eight bytes per step (slicing-by-8): the
/// eight table lookups of a step are independent, where the one-table
/// loop chains a lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Write one frame (length prefix + body + CRC trailer) and flush.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len: body.len(),
            max: MAX_FRAME,
        });
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.write_all(&crc32(body).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Read one frame, validating the length bound before allocating and
/// the CRC before returning the body.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let received = u32::from_le_bytes(crc_bytes);
    let computed = crc32(&body);
    if computed != received {
        return Err(FrameError::CrcMismatch { computed, received });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, byte-at-a-time loop `crc32` was before
    /// slicing-by-8, kept as the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference() {
        // Every split of head words and tail bytes, at every alignment
        // of the slice start, then one request-sized body.
        let buf = seeded_bytes(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
        let body = seeded_bytes(262_200);
        assert_eq!(crc32(&body), crc32_bytewise(&body));
    }

    #[test]
    fn frame_roundtrip() {
        let body = b"hello adarnet".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        assert_eq!(wire.len(), 4 + body.len() + 4);
        let back = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload bytes").unwrap();
        wire[7] ^= 0x40;
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::CrcMismatch { .. }) => {}
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_trailer_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload bytes").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocation() {
        let wire = u32::MAX.to_le_bytes();
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"some body").unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(err.is_clean_eof() || matches!(err, FrameError::Io(_)));
    }
}
