//! Rabin fingerprinting with a rolling window, from scratch.
//!
//! The content-defined chunking algorithm (paper §3.2, following LBFS)
//! computes the Rabin fingerprint of every overlapping 48-byte substring of a
//! file; positions where the low-order `k` bits of the fingerprint equal a
//! predetermined constant become chunk boundaries ("anchors").
//!
//! A Rabin fingerprint interprets a byte string as a polynomial over GF(2)
//! and reduces it modulo a fixed irreducible polynomial `P` of degree `d`.
//! Appending a byte is `f' = (f·x^8 + b) mod P`; removing the oldest byte
//! of a `W`-byte window additionally XORs out `b_old·x^(8W) mod P`.
//!
//! The tables roll a fingerprint *aligned*: held in the top `d` bits of a
//! word, `g = f << (64 − d)` ([`RabinTables::align`]). Multiplying by `x^8`
//! is then `g << 8`, which drops the byte that overflows the degree by
//! itself, and that byte is `g >> 56`, a constant shift. One step is
//!
//! `g' = (g << 8) ⊕ over[g >> 56] ⊕ push[b] ⊕ pop[b_old]`
//!
//! with three 256-entry tables holding the reduction of the overflow, the
//! entering byte and the leaving byte's term, each pre-shifted by
//! `64 − d`. No index can fall outside a table, and the step has no mask,
//! no variable shift and no bounds check:
//! [`RabinTables::roll_aligned`]. The plain-form [`RabinTables::append`],
//! [`RabinTables::roll`] and [`RabinTables::fingerprint`] go through it.
//!
//! A window's fingerprint is a function of its own `W` bytes alone, so a
//! roll may start at any position of a buffer, seeded with
//! [`RabinTables::fingerprint`] of the window that ends there. The chunker
//! in `debar-chunk` leans on this: it rolls several independent lanes over
//! disjoint stretches of one buffer side by side.

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
    /// `64 − degree`: the left shift that aligns a fingerprint.
    align: u32,
    /// `over[t] = ((t · x^degree) mod P) << align`: the reduction of the top
    /// byte `t` that a step pushes past the degree.
    over: [u64; 256],
    /// `push[b] = b << align`: the byte that enters the window.
    push: [u64; 256],
    /// `pop[b] = ((b · x^(8·window)) mod P) << align`: the contribution of
    /// the byte that slides out of the window.
    pop: [u64; 256],
}

impl RabinTables {
    /// Build the tables for the given parameters.
    ///
    /// # Panics
    /// Panics if the polynomial is not irreducible, its degree is outside
    /// `8..=56`, or the window is zero.
    pub fn new(params: RabinParams) -> Self {
        assert!(
            gf2::is_irreducible(params.poly),
            "modulus must be irreducible"
        );
        let degree = gf2::degree(params.poly);
        assert!((8..=56).contains(&degree), "degree must be in 8..=56");
        assert!(params.window > 0, "window must be non-empty");
        let align = 64 - degree;

        // `table[b] = ((b · x^exp) mod P) << align` for every byte `b`.
        let times_xpow = |exp: u128| {
            let xpow = gf2::xpow_mod(exp, params.poly);
            std::array::from_fn(|b| gf2::mulmod(b as u64, xpow, params.poly) << align)
        };

        RabinTables {
            params,
            degree,
            align,
            over: times_xpow(degree as u128),
            push: std::array::from_fn(|b| (b as u64) << align),
            pop: times_xpow(8 * params.window as u128),
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

    /// The left shift that aligns a fingerprint `f` for
    /// [`RabinTables::roll_aligned`], `64 − degree`: `g = f << align()`.
    pub fn align(&self) -> u32 {
        self.align
    }

    /// Append one byte to an aligned fingerprint.
    #[inline]
    fn append_aligned(&self, g: u64, b: u8) -> u64 {
        (g << 8) ^ self.over[(g >> 56) as usize] ^ self.push[b as usize]
    }

    /// Slide a full window one byte, on aligned fingerprints: append `b`,
    /// drop `out`, the byte `window` positions before it. The anchor test
    /// of an aligned fingerprint shifts its mask and constant by
    /// [`RabinTables::align`] too.
    #[inline]
    pub fn roll_aligned(&self, g: u64, out: u8, b: u8) -> u64 {
        self.append_aligned(g, b) ^ self.pop[out as usize]
    }

    /// Append one byte: `f' = (f·x^8 + b) mod P`.
    #[inline]
    pub fn append(&self, f: u64, b: u8) -> u64 {
        debug_assert!(f >> self.degree == 0);
        self.append_aligned(f << self.align, b) >> self.align
    }

    /// Slide a full window one byte: append `b`, drop `out`, the byte
    /// `window` positions before it.
    #[inline]
    pub fn roll(&self, f: u64, out: u8, b: u8) -> u64 {
        debug_assert!(f >> self.degree == 0);
        self.roll_aligned(f << self.align, out, b) >> self.align
    }

    /// Fingerprint of an entire byte slice (no window).
    pub fn fingerprint(&self, data: &[u8]) -> u64 {
        data.iter().fold(0u64, |g, &b| self.append_aligned(g, b)) >> self.align
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
    fn roll_matches_the_rolling_hash() {
        for (poly, window) in [(DEFAULT_POLY, 48), (DEFAULT_POLY, 16), (0x11B, 4)] {
            let t = RabinTables::new(RabinParams { poly, window });
            let data: Vec<u8> = (0..600u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
                .collect();
            let mut r = RollingHash::new(&t);
            let fps: Vec<u64> = data.iter().map(|&b| r.push(b)).collect();
            for i in window..data.len() {
                let (out, b) = (data[i - window], data[i]);
                assert_eq!(t.roll(fps[i - 1], out, b), fps[i]);
                let aligned = t.roll_aligned(fps[i - 1] << t.align(), out, b);
                assert_eq!(aligned, fps[i] << t.align(), "nothing below the alignment");
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
