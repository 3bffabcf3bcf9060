//! Small identifier types shared across the DEBAR system.

use std::fmt;

/// A 40-bit container identifier (paper §3.4).
///
/// "a container ID of 40 bits is used for DEBAR. For an 8 MB container, a
/// 40-bit container ID can represent a maximum physical backup capacity of
/// 8 exabytes." The all-ones value is reserved as the *null* sentinel used by
/// index-cache nodes whose chunks have not yet been assigned a container
/// (§5.3: "checks whether its corresponding container ID is null").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(u64);

impl ContainerId {
    /// Number of bits in a container ID.
    pub const BITS: u32 = 40;
    /// Encoded width in bytes (used by the 25-byte index entry: 20-byte
    /// fingerprint + 5-byte container ID).
    pub const BYTES: usize = 5;
    /// Highest assignable ID (all-ones is reserved for [`ContainerId::NULL`]).
    pub const MAX: u64 = (1u64 << Self::BITS) - 2;
    /// The null sentinel.
    pub const NULL: ContainerId = ContainerId((1u64 << Self::BITS) - 1);

    /// Construct from a raw value.
    ///
    /// # Panics
    /// Panics if `v` exceeds [`ContainerId::MAX`] (the null sentinel cannot
    /// be constructed this way; use [`ContainerId::NULL`]).
    pub fn new(v: u64) -> Self {
        assert!(v <= Self::MAX, "container id {v} exceeds 40-bit range");
        ContainerId(v)
    }

    /// The raw 40-bit value (including the sentinel for `NULL`).
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Whether this is the null sentinel.
    pub fn is_null(&self) -> bool {
        *self == Self::NULL
    }

    /// Encode as 5 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 5] {
        let b = self.0.to_be_bytes();
        [b[3], b[4], b[5], b[6], b[7]]
    }

    /// Decode from 5 big-endian bytes.
    pub fn from_bytes(b: [u8; 5]) -> Self {
        let v = u64::from_be_bytes([0, 0, 0, b[0], b[1], b[2], b[3], b[4]]);
        ContainerId(v)
    }
}

impl fmt::Debug for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "cid:null")
        } else {
            write!(f, "cid:{}", self.0)
        }
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sentinel_properties() {
        assert!(ContainerId::NULL.is_null());
        assert!(!ContainerId::new(0).is_null());
        assert!(!ContainerId::new(ContainerId::MAX).is_null());
        assert_eq!(ContainerId::NULL.raw(), (1 << 40) - 1);
    }

    #[test]
    #[should_panic]
    fn new_rejects_sentinel_value() {
        ContainerId::new((1 << 40) - 1);
    }

    #[test]
    #[should_panic]
    fn new_rejects_out_of_range() {
        ContainerId::new(1 << 40);
    }

    #[test]
    fn byte_roundtrip() {
        for v in [0u64, 1, 255, 256, 0xdead_beef, ContainerId::MAX] {
            let id = ContainerId::new(v);
            assert_eq!(ContainerId::from_bytes(id.to_bytes()), id);
        }
        assert_eq!(
            ContainerId::from_bytes(ContainerId::NULL.to_bytes()),
            ContainerId::NULL
        );
    }

    #[test]
    fn big_endian_encoding() {
        let id = ContainerId::new(0x01_0203_0405);
        assert_eq!(id.to_bytes(), [0x01, 0x02, 0x03, 0x04, 0x05]);
    }

    #[test]
    fn ordering_by_value() {
        assert!(ContainerId::new(1) < ContainerId::new(2));
        assert!(ContainerId::new(ContainerId::MAX) < ContainerId::NULL);
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip(v in 0u64..=(1u64 << 40) - 1) {
            let id = ContainerId(v);
            proptest::prop_assert_eq!(ContainerId::from_bytes(id.to_bytes()), id);
        }
    }
}
