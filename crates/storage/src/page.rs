//! Fixed-size checksummed pages.
//!
//! Every page on disk is exactly [`PAGE_SIZE`] bytes: an 8-byte FNV-1a
//! checksum over the payload, then the payload itself. A page is sealed
//! (checksum stamped) immediately before it is handed to the disk manager
//! and verified immediately after it is read back, so a torn or bit-rotted
//! page is always *detected* — the commit protocol in [`crate::file`] turns
//! detection into recovery by never letting the last committed state share
//! pages with in-flight writes.

use crate::{fnv1a, Result, StorageError};

/// Size of every on-disk page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of each page reserved for the checksum header.
pub(crate) const PAGE_HEADER: usize = 8;

/// Payload capacity of one page.
pub(crate) const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;

/// Identifier of a page: its index in the backing file.
pub(crate) type PageId = u64;

/// One in-memory page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Page {
    bytes: Vec<u8>,
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl Page {
    /// An all-zero page (valid payload of zeros once sealed).
    #[must_use]
    pub fn zeroed() -> Self {
        Self { bytes: vec![0; PAGE_SIZE] }
    }

    /// Wrap raw bytes read from disk. Length must be exactly [`PAGE_SIZE`].
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image of {} bytes (want {PAGE_SIZE})",
                bytes.len()
            )));
        }
        Ok(Self { bytes })
    }

    /// Build a page around a payload (at most [`PAGE_PAYLOAD`] bytes) and
    /// seal it.
    pub(crate) fn from_payload(payload: &[u8]) -> Result<Self> {
        if payload.len() > PAGE_PAYLOAD {
            return Err(StorageError::Corrupt(format!(
                "payload of {} bytes exceeds page capacity {PAGE_PAYLOAD}",
                payload.len()
            )));
        }
        let mut p = Self::zeroed();
        p.bytes[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
        p.seal();
        Ok(p)
    }

    /// The full page image (header + payload).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload region (everything after the checksum header).
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.bytes[PAGE_HEADER..]
    }

    /// Mutable payload region. Callers must [`Page::seal`] before the page
    /// is written out.
    pub(crate) fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[PAGE_HEADER..]
    }

    /// Stamp the checksum header from the current payload.
    pub(crate) fn seal(&mut self) {
        let sum = fnv1a(&self.bytes[PAGE_HEADER..]);
        self.bytes[..PAGE_HEADER].copy_from_slice(&sum.to_le_bytes());
    }

    /// True if the checksum header matches the payload.
    #[must_use]
    pub(crate) fn is_sealed(&self) -> bool {
        let mut hdr = [0u8; PAGE_HEADER];
        hdr.copy_from_slice(&self.bytes[..PAGE_HEADER]);
        u64::from_le_bytes(hdr) == fnv1a(&self.bytes[PAGE_HEADER..])
    }

    /// Error with [`StorageError::Corrupt`] unless the checksum matches.
    pub fn verify(&self, pid: PageId) -> Result<()> {
        if self.is_sealed() {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!("checksum mismatch on page {pid}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_page_verifies_and_round_trips_payload() {
        let p = Page::from_payload(b"hello pages").unwrap();
        p.verify(3).unwrap();
        assert_eq!(&p.payload()[..11], b"hello pages");
        assert_eq!(p.as_bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn single_flipped_bit_is_detected() {
        let p = Page::from_payload(b"stable").unwrap();
        let mut raw = p.as_bytes().to_vec();
        raw[PAGE_HEADER + 2] ^= 0x40;
        let torn = Page::from_bytes(raw).unwrap();
        assert!(matches!(torn.verify(0), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn oversized_payload_rejected() {
        let big = vec![1u8; PAGE_PAYLOAD + 1];
        assert!(Page::from_payload(&big).is_err());
    }

    #[test]
    fn wrong_length_image_rejected() {
        assert!(Page::from_bytes(vec![0; PAGE_SIZE - 1]).is_err());
    }

    #[test]
    fn reseal_after_payload_edit() {
        let mut p = Page::from_payload(b"v1").unwrap();
        p.payload_mut()[0] = b'V';
        assert!(!p.is_sealed());
        p.seal();
        assert!(p.is_sealed());
    }
}
