//! Rabin fingerprinting with a rolling window, from scratch.
//!
//! The content-defined chunking algorithm (paper §3.2, following LBFS)
//! computes the Rabin fingerprint of every overlapping 48-byte substring of a
//! file; positions where the low-order `k` bits of the fingerprint equal a
//! predetermined constant become chunk boundaries ("anchors").
//!
//! A Rabin fingerprint interprets a byte string as a polynomial over GF(2)
//! and reduces it modulo a fixed irreducible polynomial `P`. Appending a byte
//! is `f' = (f·x^8 + b) mod P`; removing the oldest byte of a `W`-byte window
//! additionally XORs out `b_old·x^(8W) mod P`. Both operations are table
//! driven (two 256-entry tables), so the rolling hash costs a shift, two
//! XORs and two table loads per byte.
//!
//! [`RabinTables::roll2`] advances a window by two bytes in one step,
//! `f' = (f·x^16 + b₁·x^8 + b₂ − o₁·x^(8W+8) − o₂·x^(8W)) mod P`, with two
//! more tables, `x^8·shift8` and `x^8·pop`: the two bytes that overflow the
//! degree and the two that leave the window each take one load, and the
//! four loads are independent of each other. A chunker that runs two such
//! chains side by side (one for even, one for odd positions) has half the
//! dependent steps per byte of [`RabinTables::roll`].

use crate::gf2;

/// The default irreducible polynomial: degree 53, the polynomial used by
/// LBFS (`0x3DA3358B4DC173`). Verified irreducible by `gf2::is_irreducible`
/// in this crate's tests.
pub const DEFAULT_POLY: u64 = 0x003D_A335_8B4D_C173;

/// The default window size in bytes ("usually 48 bytes", paper §3.2).
pub const DEFAULT_WINDOW: usize = 48;

/// Parameters of a Rabin fingerprinting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RabinParams {
    /// The irreducible modulus polynomial.
    pub poly: u64,
    /// Sliding window width in bytes.
    pub window: usize,
}

impl Default for RabinParams {
    fn default() -> Self {
        RabinParams {
            poly: DEFAULT_POLY,
            window: DEFAULT_WINDOW,
        }
    }
}

/// Precomputed lookup tables for one [`RabinParams`] configuration.
///
/// Building the tables costs a few thousand GF(2) operations; construct once
/// and share (the tables are immutable and `Send + Sync`).
#[derive(Debug, Clone)]
pub struct RabinTables {
    params: RabinParams,
    degree: u32,
    /// Mask with the low `degree` bits set; fingerprints always fit it.
    mask: u64,
    /// `shift8[t] = (t · x^degree) mod P` for the top byte `t` produced when a
    /// fingerprint is multiplied by `x^8`.
    shift8: [u64; 256],
    /// `pop[b] = (b · x^(8·window)) mod P`: the contribution of the byte that
    /// slides out of the window.
    pop: [u64; 256],
    /// `shift8_x8[t] = (t · x^(degree+8)) mod P`: the high one of the two
    /// bytes a two-byte step pushes past the degree.
    shift8_x8: [u64; 256],
    /// `pop_x8[b] = (b · x^(8·window+8)) mod P`: the older one of the two
    /// bytes a two-byte step slides out of the window.
    pop_x8: [u64; 256],
}

impl RabinTables {
    /// Build the tables for the given parameters.
    ///
    /// # Panics
    /// Panics if the polynomial is not irreducible, its degree is outside
    /// `8..=56` (the append step shifts left by 8 bits and must not
    /// overflow), or the window is zero.
    pub fn new(params: RabinParams) -> Self {
        assert!(
            gf2::is_irreducible(params.poly),
            "modulus must be irreducible"
        );
        let degree = gf2::degree(params.poly);
        assert!((8..=56).contains(&degree), "degree must be in 8..=56");
        assert!(params.window > 0, "window must be non-empty");
        let mask = (1u64 << degree) - 1;

        // `table[b] = (b · x^exp) mod P` for every byte `b`.
        let times_xpow = |exp: u128| {
            let xpow = gf2::xpow_mod(exp, params.poly);
            std::array::from_fn(|b| gf2::mulmod(b as u64, xpow, params.poly))
        };
        let window_bits = 8 * params.window as u128;

        RabinTables {
            params,
            degree,
            mask,
            shift8: times_xpow(degree as u128),
            pop: times_xpow(window_bits),
            shift8_x8: times_xpow(degree as u128 + 8),
            pop_x8: times_xpow(window_bits + 8),
        }
    }

    /// Build tables for the default (LBFS) parameters.
    pub fn default_tables() -> Self {
        Self::new(RabinParams::default())
    }

    /// The parameters these tables were built for.
    pub fn params(&self) -> RabinParams {
        self.params
    }

    /// Degree of the modulus polynomial.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Append one byte: `f' = (f·x^8 + b) mod P`.
    #[inline]
    pub fn append(&self, f: u64, b: u8) -> u64 {
        debug_assert!(f <= self.mask);
        let raw = (f << 8) | b as u64;
        (raw & self.mask) ^ self.shift8[(raw >> self.degree) as usize]
    }

    /// Slide a full window one byte: append `b`, drop `out`, the byte
    /// `window` positions before it.
    #[inline]
    pub fn roll(&self, f: u64, out: u8, b: u8) -> u64 {
        self.append(f, b) ^ self.pop[out as usize]
    }

    /// Slide a full window two bytes in one step: append `b1` then `b2`,
    /// drop `out1` and `out2`, the bytes `window` positions before each.
    /// Equals `roll(roll(f, out1, b1), out2, b2)`.
    #[inline]
    pub fn roll2(&self, f: u64, [out1, out2]: [u8; 2], [b1, b2]: [u8; 2]) -> u64 {
        debug_assert!(f <= self.mask);
        // `f·x^16 + b1·x^8 + b2` split at the degree: `raw` has at most
        // `degree + 8 ≤ 64` bits, so `top` is the 16 bits that overflow.
        let raw = (f << 8) | b1 as u64;
        let top = raw >> (self.degree - 8);
        let low = ((raw << 8) | b2 as u64) & self.mask;
        // The loads indexed by `top` are the only ones on `f`'s chain;
        // XOR the rest together first.
        let rest = low ^ self.pop_x8[out1 as usize] ^ self.pop[out2 as usize];
        rest ^ (self.shift8[top as u8 as usize] ^ self.shift8_x8[(top >> 8) as u8 as usize])
    }

    /// Fingerprint of an entire byte slice (no window).
    pub fn fingerprint(&self, data: &[u8]) -> u64 {
        data.iter().fold(0u64, |f, &b| self.append(f, b))
    }
}

/// A rolling Rabin hash over the last `window` bytes pushed.
///
/// Until the window has filled, [`RollingHash::push`] behaves like plain
/// appending; once full, the oldest byte is removed as each new byte enters.
#[derive(Debug, Clone)]
pub struct RollingHash<'t> {
    tables: &'t RabinTables,
    fp: u64,
    ring: Vec<u8>,
    /// Next slot in the ring to overwrite.
    head: usize,
    filled: usize,
}

impl<'t> RollingHash<'t> {
    /// Create an empty rolling hash backed by shared tables.
    pub fn new(tables: &'t RabinTables) -> Self {
        RollingHash {
            tables,
            fp: 0,
            ring: vec![0u8; tables.params.window],
            head: 0,
            filled: 0,
        }
    }

    /// Push one byte and return the fingerprint of the (up to `window`-byte)
    /// trailing window.
    #[inline]
    pub fn push(&mut self, b: u8) -> u64 {
        if self.filled == self.ring.len() {
            self.fp = self.tables.roll(self.fp, self.ring[self.head], b);
        } else {
            self.fp = self.tables.append(self.fp, b);
            self.filled += 1;
        }
        self.ring[self.head] = b;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        self.fp
    }

    /// Current fingerprint of the trailing window.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// True once `window` bytes have been pushed.
    pub fn window_full(&self) -> bool {
        self.filled == self.ring.len()
    }

    /// Reset to the empty state, keeping the tables.
    pub fn reset(&mut self) {
        self.fp = 0;
        self.head = 0;
        self.filled = 0;
        self.ring.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> RabinTables {
        RabinTables::default_tables()
    }

    #[test]
    fn append_matches_direct_gf2_math() {
        let t = tables();
        let p = t.params().poly;
        let mut f = 0u64;
        for b in b"hello rabin fingerprints" {
            let expect = gf2::reduce128(((f as u128) << 8) | *b as u128, p);
            f = t.append(f, *b);
            assert_eq!(f, expect);
        }
    }

    #[test]
    fn fingerprint_is_polynomial_of_message() {
        // Verify against a naive construction: build the message polynomial
        // with clmul shifts and reduce once.
        let t = tables();
        let msg = b"abcdef";
        let mut poly: u128 = 0;
        for &b in msg {
            poly = (poly << 8) | b as u128;
        }
        assert_eq!(t.fingerprint(msg), gf2::reduce128(poly, t.params().poly));
    }

    #[test]
    fn rolling_equals_direct_window_hash() {
        let t = tables();
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let w = t.params().window;
        let mut roll = RollingHash::new(&t);
        for (i, &b) in data.iter().enumerate() {
            let fp = roll.push(b);
            let start = (i + 1).saturating_sub(w);
            let direct = t.fingerprint(&data[start..=i]);
            assert_eq!(fp, direct, "mismatch at byte {i}");
        }
    }

    #[test]
    fn rolling_forgets_distant_past() {
        // Two streams with different prefixes converge once the window no
        // longer covers the differing bytes.
        let t = tables();
        let w = t.params().window;
        let tail: Vec<u8> = (0..w as u32 + 8).map(|i| (i * 7 + 3) as u8).collect();
        let mut a = RollingHash::new(&t);
        let mut b = RollingHash::new(&t);
        for x in b"PREFIX-A-........." {
            a.push(*x);
        }
        for x in b"completely-different-prefix-of-other-len" {
            b.push(*x);
        }
        let mut last_a = 0;
        let mut last_b = 0;
        for &x in &tail {
            last_a = a.push(x);
            last_b = b.push(x);
        }
        assert_eq!(last_a, last_b);
    }

    #[test]
    fn reset_restores_initial_state() {
        let t = tables();
        let mut r = RollingHash::new(&t);
        for b in 0..100u8 {
            r.push(b);
        }
        r.reset();
        let mut fresh = RollingHash::new(&t);
        for b in b"xyz" {
            assert_eq!(r.push(*b), fresh.push(*b));
        }
    }

    #[test]
    fn window_full_tracking() {
        let t = tables();
        let mut r = RollingHash::new(&t);
        for i in 0..t.params().window - 1 {
            r.push(i as u8);
            assert!(!r.window_full());
        }
        r.push(0xff);
        assert!(r.window_full());
    }

    #[test]
    fn small_window_rolls_correctly() {
        let params = RabinParams {
            poly: DEFAULT_POLY,
            window: 4,
        };
        let t = RabinTables::new(params);
        let data = b"abcdefgh";
        let mut r = RollingHash::new(&t);
        let mut last = 0;
        for &b in data.iter() {
            last = r.push(b);
        }
        assert_eq!(last, t.fingerprint(b"efgh"));
    }

    #[test]
    fn fingerprints_fit_degree_mask() {
        let t = tables();
        let mut r = RollingHash::new(&t);
        for i in 0..10_000u32 {
            let fp = r.push((i % 251) as u8);
            assert!(fp < (1 << 53));
        }
    }

    #[test]
    fn roll_and_roll2_match_the_rolling_hash() {
        for (poly, window) in [(DEFAULT_POLY, 48), (DEFAULT_POLY, 16), (0x11B, 4)] {
            let t = RabinTables::new(RabinParams { poly, window });
            let data: Vec<u8> = (0..600u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
                .collect();
            let mut r = RollingHash::new(&t);
            let fps: Vec<u64> = data.iter().map(|&b| r.push(b)).collect();
            for i in window..data.len() {
                assert_eq!(t.roll(fps[i - 1], data[i - window], data[i]), fps[i]);
            }
            for i in window + 1..data.len() {
                let out = [data[i - 1 - window], data[i - window]];
                assert_eq!(t.roll2(fps[i - 2], out, [data[i - 1], data[i]]), fps[i]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn reducible_poly_rejected() {
        RabinTables::new(RabinParams {
            poly: 0b101,
            window: 48,
        }); // (x+1)^2
    }

    proptest::proptest! {
        #[test]
        fn prop_rolling_matches_direct(data: Vec<u8>) {
            let t = tables();
            let w = t.params().window;
            let mut roll = RollingHash::new(&t);
            let mut final_fp = 0;
            for &b in &data {
                final_fp = roll.push(b);
            }
            if !data.is_empty() {
                let start = data.len().saturating_sub(w);
                proptest::prop_assert_eq!(final_fp, t.fingerprint(&data[start..]));
            }
        }

        #[test]
        fn prop_window_locality(prefix_a: Vec<u8>, prefix_b: Vec<u8>, suffix: Vec<u8>) {
            // After pushing >= window bytes of identical suffix, fingerprints agree
            // regardless of prefix.
            let t = tables();
            let w = t.params().window;
            let mut suffix = suffix;
            suffix.resize(w.max(suffix.len()), 0x5a);
            let run = |prefix: &[u8]| {
                let mut r = RollingHash::new(&t);
                for &b in prefix { r.push(b); }
                let mut last = r.fingerprint();
                for &b in &suffix { last = r.push(b); }
                last
            };
            proptest::prop_assert_eq!(run(&prefix_a), run(&prefix_b));
        }
    }
}
