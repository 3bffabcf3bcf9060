//! SHA-1 implemented from scratch per FIPS 180-1 (the standard the paper
//! cites as its reference 27).
//!
//! DEBAR uses SHA-1 for chunk fingerprints because it is collision-resistant
//! and its outputs are uniformly distributed, which is what gives the disk
//! index its *uniform fingerprint distribution* property (paper §4.1).
//!
//! The implementation provides both a streaming interface ([`Sha1::update`] /
//! [`Sha1::finalize`]) and one-shot helpers. A dedicated single-block fast
//! path ([`sha1_u64`]) hashes a 64-bit counter, which the paper uses to
//! synthesize unlimited random fingerprint streams (§4.2, §6.2).
//!
//! # Kernels
//!
//! Every block goes through one function, `compress_blocks`, and only CPU
//! detection chooses its kernel — no configuration, feature or variable:
//!
//! * on x86_64 CPUs with the SHA extensions (SHA-NI, detected at run time
//!   together with the SSSE3 and SSE4.1 it also needs), a kernel built on
//!   the `sha1rnds4` / `sha1nexte` / `sha1msg1` / `sha1msg2` instructions
//!   runs the 80 rounds four at a time;
//! * everywhere else the portable [`compress`] runs, one block at a time.
//!
//! Both compute the FIPS 180-1 compression function exactly, so the kernel
//! changes how fast a digest is computed and never what it is: every
//! fingerprint, and with it every index bucket, routing decision and stored
//! byte, is the same on any CPU. [`compress`] stays public as the reference
//! the tests hold the hardware kernel to; [`kernel`] names the one that runs.

// The workspace denies unsafe code; the SHA-NI kernel is one of its two exceptions.
#![allow(unsafe_code)]

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Streaming SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes (the standard allows 2^64 bits; byte
    /// granularity is all we need).
    len_bytes: u64,
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a fresh hasher that runs this CPU's fastest kernel.
    pub fn new() -> Self {
        Self::with_kernel(kernel())
    }

    /// Create a fresh hasher that runs the portable [`compress`] on any
    /// CPU: the reference the hardware kernel is measured and tested
    /// against. Its digests are those of [`Sha1::new`].
    pub fn portable() -> Self {
        Self::with_kernel(Kernel::Portable)
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha1 {
            state: H0,
            len_bytes: 0,
            buf: [0u8; 64],
            buf_len: 0,
            kernel,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bytes = self.len_bytes.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(self.kernel, &mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() & !63;
        compress_blocks(self.kernel, &mut self.state, &data[..whole]);
        let rem = &data[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finish the computation and return the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        // The buffered tail, the 0x80 terminator, zero padding and the
        // 64-bit bit length: one block when the tail leaves room for the
        // length (< 56 bytes), else two.
        let n = self.buf_len;
        let blocks = if n < 56 { 1 } else { 2 };
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        let end = 64 * blocks;
        tail[end - 8..end].copy_from_slice(&self.len_bytes.wrapping_mul(8).to_be_bytes());
        compress_blocks(self.kernel, &mut self.state, &tail[..end]);
        digest_bytes(&self.state)
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }
}

/// The compression kernel a [`Sha1`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable [`compress`], one block at a time.
    Portable,
    /// The x86_64 SHA extensions (SHA-NI), four rounds per instruction.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

/// The kernel [`Sha1::new`] and [`sha1_u64`] run on this CPU.
pub fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        return Kernel::ShaNi;
    }
    Kernel::Portable
}

/// True when the CPU has every feature [`compress_blocks_sha_ni`] enables
/// (SSE2 is part of the x86_64 baseline).
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Absorb `data`, a whole number of 64-byte blocks, with `kernel`. The
/// hardware kernel is taken only when the CPU has it, whoever asked.
fn compress_blocks(kernel: Kernel, state: &mut [u32; 5], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard has just detected sha, ssse3 and sse4.1, every
        // feature the kernel enables beyond the x86_64 baseline.
        Kernel::ShaNi if sha_ni_detected() => unsafe { compress_blocks_sha_ni(state, data) },
        _ => {
            for block in data.chunks_exact(64) {
                compress(state, block.try_into().expect("exact chunk"));
            }
        }
    }
}

/// The SHA-1 compression function over every 64-byte block of `data`, on
/// the SHA extensions: `sha1rnds4` runs four rounds, `sha1nexte` derives
/// the next four rounds' `E` from the `A` four rounds back, and
/// `sha1msg1` / `sha1msg2` expand the message schedule four words at a
/// time (`w[t] = rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16])`).
///
/// `A..D` live in one register, `A` in the highest lane; `E` in the highest
/// lane of another. Schedule words are kept four to a register, `w[t]` in
/// the highest lane, cycling through five registers.
///
/// # Safety
/// The CPU must support `sha`, `ssse3` and `sse4.1` (`sse2` is in the
/// x86_64 baseline): call it only after [`sha_ni_detected`] returned true.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha_ni(state: &mut [u32; 5], data: &[u8]) {
    use std::arch::x86_64::*;

    // Reverses the 16 bytes of a load: big-endian words, `w[t]` on top.
    let flip = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut abcd = _mm_set_epi32(
        state[0] as i32,
        state[1] as i32,
        state[2] as i32,
        state[3] as i32,
    );
    let mut e = _mm_set_epi32(state[4] as i32, 0, 0, 0);

    // Four rounds of family `F` on schedule words `w`: `prev` holds the
    // `A..D` of four rounds back, from which the `E` of these rounds comes;
    // the result replaces it.
    macro_rules! rounds4 {
        ($cur:ident, $prev:ident, $w:expr, $f:literal) => {
            $prev = _mm_sha1rnds4_epu32::<$f>($cur, _mm_sha1nexte_epu32($prev, $w));
        };
    }
    // The next four schedule words from the last sixteen.
    macro_rules! schedule {
        ($w16:expr, $w12:expr, $w8:expr, $w4:expr) => {
            _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w16, $w12), $w8), $w4)
        };
    }

    for block in data.chunks_exact(64) {
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 readable bytes, so `p` and the next three
        // 16-byte offsets are in bounds; `loadu` takes any alignment.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p), flip),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), flip),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), flip),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), flip),
            )
        };
        let mut w4;

        // `h0` / `h1` alternate between the current `A..D` and the one
        // four rounds back. Rounds 0..4 take `E` straight from the state.
        let mut h0 = abcd;
        let mut h1 = _mm_sha1rnds4_epu32::<0>(h0, _mm_add_epi32(e, w0));
        rounds4!(h1, h0, w1, 0);
        rounds4!(h0, h1, w2, 0);
        rounds4!(h1, h0, w3, 0);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h0, h1, w4, 0);
        // Rounds 20..40.
        w0 = schedule!(w1, w2, w3, w4);
        rounds4!(h1, h0, w0, 1);
        w1 = schedule!(w2, w3, w4, w0);
        rounds4!(h0, h1, w1, 1);
        w2 = schedule!(w3, w4, w0, w1);
        rounds4!(h1, h0, w2, 1);
        w3 = schedule!(w4, w0, w1, w2);
        rounds4!(h0, h1, w3, 1);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h1, h0, w4, 1);
        // Rounds 40..60.
        w0 = schedule!(w1, w2, w3, w4);
        rounds4!(h0, h1, w0, 2);
        w1 = schedule!(w2, w3, w4, w0);
        rounds4!(h1, h0, w1, 2);
        w2 = schedule!(w3, w4, w0, w1);
        rounds4!(h0, h1, w2, 2);
        w3 = schedule!(w4, w0, w1, w2);
        rounds4!(h1, h0, w3, 2);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h0, h1, w4, 2);
        // Rounds 60..80.
        w0 = schedule!(w1, w2, w3, w4);
        rounds4!(h1, h0, w0, 3);
        w1 = schedule!(w2, w3, w4, w0);
        rounds4!(h0, h1, w1, 3);
        w2 = schedule!(w3, w4, w0, w1);
        rounds4!(h1, h0, w2, 3);
        w3 = schedule!(w4, w0, w1, w2);
        rounds4!(h0, h1, w3, 3);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h1, h0, w4, 3);

        // `h0` is the final `A..D`; the final `E` is `rotl30` of the `A`
        // four rounds back, in `h1`.
        abcd = _mm_add_epi32(abcd, h0);
        e = _mm_sha1nexte_epu32(h1, e);
    }

    state[0] = _mm_extract_epi32::<3>(abcd) as u32;
    state[1] = _mm_extract_epi32::<2>(abcd) as u32;
    state[2] = _mm_extract_epi32::<1>(abcd) as u32;
    state[3] = _mm_extract_epi32::<0>(abcd) as u32;
    state[4] = _mm_extract_epi32::<3>(e) as u32;
}

/// The big-endian digest bytes of a final state.
fn digest_bytes(state: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-1 compression function: absorb one 64-byte block.
///
/// Hot-loop form: the message schedule lives in a 16-word circular buffer
/// (the 80-word expansion is never materialised — each `w[t]` is computed
/// as it is consumed and overwrites the slot it recurs on), and the single
/// 80-round loop with a per-round 4-way branch on the round family is
/// split into four specialised 20-round loops the compiler fully unrolls.
/// The boolean functions use their branch-free forms
/// (`ch = d ^ (b & (c ^ d))`, `maj = (b & c) | (d & (b | c))`).
///
/// This is the portable kernel: it runs wherever the SHA extensions do
/// not, and it is the reference they are tested against.
pub fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    const K0: u32 = 0x5A82_7999;
    const K1: u32 = 0x6ED9_EBA1;
    const K2: u32 = 0x8F1B_BCDC;
    const K3: u32 = 0xCA62_C1D6;

    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // Expand schedule word `t` (t ≥ 16) in place.
    macro_rules! w_next {
        ($t:expr) => {{
            let x = (w[($t + 13) & 15] ^ w[($t + 8) & 15] ^ w[($t + 2) & 15] ^ w[$t & 15])
                .rotate_left(1);
            w[$t & 15] = x;
            x
        }};
    }
    // One round with the standard role rotation.
    macro_rules! round {
        ($f:expr, $k:expr, $wi:expr) => {{
            let tmp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($k)
                .wrapping_add($wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }};
    }

    for wt in w {
        round!(d ^ (b & (c ^ d)), K0, wt);
    }
    for t in 16..20 {
        round!(d ^ (b & (c ^ d)), K0, w_next!(t));
    }
    for t in 20..40 {
        round!(b ^ c ^ d, K1, w_next!(t));
    }
    for t in 40..60 {
        round!((b & c) | (d & (b | c)), K2, w_next!(t));
    }
    for t in 60..80 {
        round!(b ^ c ^ d, K3, w_next!(t));
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// Fast single-block SHA-1 of a little-endian `u64` — the synthetic
/// fingerprint source of paper §4.2/§6.2 ("a 64-bit variable ... as input to
/// the SHA-1 algorithm").
///
/// Equivalent to `Sha1::digest(&value.to_le_bytes())` but avoids the
/// streaming machinery; the message (8 bytes) plus padding always fits a
/// single compression block.
pub fn sha1_u64(value: u64) -> [u8; 20] {
    let mut block = [0u8; 64];
    block[..8].copy_from_slice(&value.to_le_bytes());
    block[8] = 0x80;
    // 8 bytes = 64 bits, big-endian in the final 8 bytes of the block.
    block[56..64].copy_from_slice(&64u64.to_be_bytes());
    let mut state = H0;
    compress_blocks(kernel(), &mut state, &block);
    digest_bytes(&state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex(&Sha1::digest(msg)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn vector_quick_brown_fox() {
        assert_eq!(
            hex(&Sha1::digest(
                b"The quick brown fox jumps over the lazy dog"
            )),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn exact_block_boundary_message() {
        // 64-byte message forces padding into a second block.
        let msg = [0x61u8; 64];
        let mut h = Sha1::new();
        h.update(&msg);
        assert_eq!(hex(&h.finalize()), hex(&Sha1::digest(&msg)));
        assert_eq!(
            hex(&Sha1::digest(&msg)),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d"
        );
    }

    #[test]
    fn len_55_56_57_padding_edges() {
        // 55 bytes: length fits the same block; 56/57: spills to next block.
        for n in [55usize, 56, 57, 63, 64, 65, 127, 128, 129] {
            let msg = vec![0xa5u8; n];
            let whole = Sha1::digest(&msg);
            let mut h = Sha1::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), whole, "byte-at-a-time mismatch at n={n}");
        }
    }

    #[test]
    fn incremental_equals_oneshot_random_splits() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = Sha1::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    /// The pre-optimisation compression function (80-word materialised
    /// schedule, branchy round loop), kept as the correctness reference.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }

    #[test]
    fn unrolled_compress_matches_reference() {
        // Pseudo-random blocks through both compression functions.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut block = [0u8; 64];
        let mut st_a = super::H0;
        let mut st_b = super::H0;
        for _ in 0..200 {
            for byte in block.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *byte = (x >> 24) as u8;
            }
            compress(&mut st_a, &block);
            compress_reference(&mut st_b, &block);
            assert_eq!(st_a, st_b);
        }
    }

    #[test]
    fn sha1_u64_matches_streaming() {
        for v in [0u64, 1, 42, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(sha1_u64(v), Sha1::digest(&v.to_le_bytes()));
            assert_eq!(sha1_u64(v), portable_digest(&v.to_le_bytes()));
        }
    }

    fn portable_digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::portable();
        h.update(data);
        h.finalize()
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Names the kernel the dispatched tests below exercised, so a green
    /// run on a CPU without SHA-NI is not read as coverage of the SHA-NI
    /// kernel (`cargo test -p debar-hash kernel -- --nocapture` shows it).
    #[test]
    fn kernel_is_the_detected_one() {
        let k = kernel();
        println!("sha1 kernel under test: {k:?}");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(k == Kernel::ShaNi, sha_ni_detected());
        assert_eq!(Sha1::new().kernel, k);
        assert_eq!(Sha1::portable().kernel, Kernel::Portable);
    }

    #[test]
    fn dispatched_matches_portable_at_every_length_to_300() {
        let data = noise(300, 0x5a1);
        for n in 0..=300 {
            assert_eq!(
                Sha1::digest(&data[..n]),
                portable_digest(&data[..n]),
                "length {n} on {:?}",
                kernel()
            );
        }
    }

    #[test]
    fn three_blocks_split_at_every_offset_match_portable() {
        // The first `update` leaves 0..=63 bytes buffered; the second fills
        // the buffer (the buffered path) and hands the rest to the bulk path.
        let data = noise(192, 0xb10c);
        let whole = portable_digest(&data);
        for split in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split} on {:?}", kernel());
        }
    }

    #[test]
    fn fips_vectors_on_the_portable_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        for (msg, want) in [
            (&b""[..], "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (&million_a, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
        ] {
            assert_eq!(hex(&portable_digest(msg)), want);
            assert_eq!(hex(&Sha1::digest(msg)), want);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_kernel_matches_portable_block_by_block() {
        if !sha_ni_detected() {
            println!("CPU lacks SHA-NI: the hardware kernel is not exercised");
            return;
        }
        let data = noise(64 * 200, 0x5eed);
        let mut hw = H0;
        let mut sw = H0;
        for (i, block) in data.chunks_exact(64).enumerate() {
            // SAFETY: `sha_ni_detected()` returned true above.
            unsafe { compress_blocks_sha_ni(&mut hw, block) };
            compress(&mut sw, block.try_into().expect("64-byte block"));
            assert_eq!(hw, sw, "block {i}");
        }
        // And many blocks in one call.
        let mut many = H0;
        // SAFETY: as above.
        unsafe { compress_blocks_sha_ni(&mut many, &data) };
        assert_eq!(many, sw);
    }

    #[test]
    fn distinct_counters_distinct_digests() {
        let a = sha1_u64(7);
        let b = sha1_u64(8);
        assert_ne!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn prop_incremental_equals_oneshot(data: Vec<u8>, split in 0usize..4096) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        #[test]
        fn prop_sha1_u64_matches(v: u64) {
            proptest::prop_assert_eq!(sha1_u64(v), Sha1::digest(&v.to_le_bytes()));
        }
    }
}
