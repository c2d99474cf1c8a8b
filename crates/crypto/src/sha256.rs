//! SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), implemented from
//! scratch.
//!
//! The tamper-proof log, Merkle hash trees, Schnorr challenges and CoSi
//! challenges in Fides all hash through this module. The paper (§2.3) only
//! requires a one-way, collision-resistant hash; SHA-256 is the natural
//! concrete choice.
//!
//! # Backends
//!
//! The compression function is chosen once per process from CPU
//! features alone:
//!
//! * **SHA-NI** — on x86-64 CPUs that advertise the `sha` extension
//!   (with SSSE3 and SSE4.1), every block is compressed by the
//!   `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions, about 8×
//!   faster per block than the portable code.
//! * **Portable** — the FIPS 180-4 round function in plain Rust,
//!   everywhere else. It stays the differential reference for the
//!   hardware path ([`compress_portable`], [`digest_portable`]).
//!
//! Besides the streaming [`Sha256`] hasher there is a batch API,
//! [`Sha256::digest_many`]. With SHA-NI it hashes the messages one
//! after another. Without it, it compresses 4 or 8 independent
//! messages per pass through the round schedule: SHA-256's long
//! add-rotate-xor dependency chain leaves most of a superscalar core
//! idle on a single message, and interleaving independent lanes in
//! structure-of-arrays form fills those slots (and auto-vectorizes),
//! so hashing `N` short messages — Merkle node hashes, batch Schnorr
//! challenges — costs far less than `N` sequential portable digests.
//!
//! # Example
//!
//! ```
//! use fides_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use crate::hash::Digest;

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// Feed data with [`Sha256::update`] and produce the digest with
/// [`Sha256::finalize`]; or use [`Sha256::digest`] for one-shot hashing.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            length: 0,
            buffer: [0u8; 64],
            buffered: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hash the concatenation of several byte strings.
    ///
    /// Note that this is *not* injective across different splits of the
    /// same bytes; callers that need framing must length-prefix (the
    /// [`crate::encoding`] module does).
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Hash a batch of independent messages. The result is element-wise
    /// identical to calling [`Sha256::digest`] on each message.
    ///
    /// With SHA-NI each message is hashed in turn by the hardware
    /// compression, which beats lane interleaving. Otherwise 8 messages
    /// (with AVX2) or 4 share each pass through the portable round
    /// function (see the module docs).
    pub fn digest_many(messages: &[&[u8]]) -> Vec<Digest> {
        match backend() {
            Backend::ShaNi => messages.iter().map(|m| Sha256::digest(m)).collect(),
            Backend::Lanes8 => digest_many_lanes::<8>(messages),
            Backend::Lanes4 => digest_many_lanes::<4>(messages),
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially-filled buffer first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        // Whole blocks compress straight from the input, no staging
        // copy, in one backend call.
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &input[..whole]);
            input = &input[whole..];
        }
        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Apply padding and produce the final digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length.wrapping_mul(8);
        // Padding: 0x80, zeros, and the 64-bit length — one block when
        // the tail leaves ≥ 8 spare bytes, two otherwise, compressed in
        // one backend call.
        let n = self.buffered;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..len]);
        digest_of_state(&self.state)
    }
}

/// The big-endian serialization of a final hash state.
fn digest_of_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (word, chunk) in state.iter().zip(out.chunks_exact_mut(4)) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Digest::new(out)
}

/// Compresses the whole 64-byte blocks of `blocks` into `state` with
/// this CPU's backend.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::ShaNi {
        // SAFETY: `backend()` answers `ShaNi` only after runtime
        // detection of every feature `shani::compress_blocks` enables.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block.try_into().expect("64-byte block"));
    }
}

/// One 64-byte block through this CPU's compression function (SHA-NI
/// when present, else [`compress_portable`]).
#[doc(hidden)]
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    compress_blocks(state, block);
}

/// SHA-256 of `data` through [`compress_portable`] alone, whatever the
/// CPU offers: the reference the hardware backend is tested and
/// benchmarked against. Pads with [`padded_block`], independently of
/// the streaming hasher's padding.
#[doc(hidden)]
pub fn digest_portable(data: &[u8]) -> Digest {
    let mut state = H0;
    for index in 0..padded_block_count(data.len()) {
        compress_portable(&mut state, &padded_block(data, index));
    }
    digest_of_state(&state)
}

/// [`Sha256::digest_many`] on a CPU without SHA-NI, whatever this CPU
/// offers: groups of `L` (8 or 4) messages share each pass through the
/// portable round function, then groups of 4, then the rest are hashed
/// one by one. Exposed so the lane code is tested on every CPU.
#[doc(hidden)]
pub fn digest_many_lanes<const L: usize>(messages: &[&[u8]]) -> Vec<Digest> {
    const { assert!(L == 8 || L == 4) };
    let mut out = Vec::with_capacity(messages.len());
    let mut rest = messages;
    if L == 8 {
        while rest.len() >= 8 {
            let (chunk, tail) = rest.split_at(8);
            out.extend_from_slice(&digest_lanes::<8>(chunk.try_into().expect("8 lanes")));
            rest = tail;
        }
    }
    while rest.len() >= 4 {
        let (chunk, tail) = rest.split_at(4);
        out.extend_from_slice(&digest_lanes::<4>(chunk.try_into().expect("4 lanes")));
        rest = tail;
    }
    out.extend(rest.iter().map(|m| Sha256::digest(m)));
    out
}

/// The portable single-message compression function (FIPS 180-4
/// §6.2.2): the fallback on CPUs without SHA-NI and the reference the
/// hardware path is differentially tested against.
#[doc(hidden)]
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression backend, chosen once per process from CPU
/// features alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
// Off x86-64 only `Lanes4` is ever chosen.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Backend {
    /// SHA-NI instructions; `digest_many` hashes one message at a time.
    ShaNi,
    /// Portable compression; `digest_many` interleaves 8 lanes (AVX2).
    Lanes8,
    /// Portable compression; `digest_many` interleaves 4 lanes.
    Lanes4,
}

/// This CPU's [`Backend`], detected on first use.
fn backend() -> Backend {
    use std::sync::OnceLock;
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
            {
                return Backend::ShaNi;
            }
            // 8 interleaved lanes want 8×32-bit SIMD registers; without
            // AVX2 (or off x86-64), 4 lanes keep the working set in
            // what 128-bit units (or plain scalar ILP) can hold.
            if std::arch::is_x86_feature_detected!("avx2") {
                return Backend::Lanes8;
            }
        }
        Backend::Lanes4
    })
}

/// The name of this CPU's SHA-256 backend: `"sha-ni"`,
/// `"portable-8-lane"` or `"portable-4-lane"` (for benchmark reports).
pub fn backend_name() -> &'static str {
    match backend() {
        Backend::ShaNi => "sha-ni",
        Backend::Lanes8 => "portable-8-lane",
        Backend::Lanes4 => "portable-4-lane",
    }
}

/// The SHA-NI compression (x86-64 `sha` extension).
#[cfg(target_arch = "x86_64")]
mod shani {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// The next four message-schedule words `W[t..t+4]` from the
    /// previous sixteen, held as four vectors `w[t-16..t-12]`,
    /// `w[t-12..t-8]`, `w[t-8..t-4]` and `w[t-4..t]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        // σ0 of W[t-15..] added to W[t-16..]; then W[t-7..] (the four
        // words straddling w2 and w3); then σ1 of W[t-2..].
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Loads the four round constants `K[4·quad..4·quad + 4]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn round_constants(quad: usize) -> __m128i {
        let k = &K[4 * quad..4 * quad + 4];
        // SAFETY: `k` is four initialized `u32`s (16 bytes), and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(k.as_ptr().cast()) }
    }

    /// Compresses the whole 64-byte blocks of `blocks` into `state`.
    ///
    /// The hardware keeps the state as two vectors, `ABEF` and `CDGH`;
    /// each `sha256rnds2` runs two rounds and hands back the new `ABEF`,
    /// so the two vectors swap roles every two rounds.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit word: big-endian message words.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is eight `u32`s (32 bytes); both unaligned
        // loads read 16 bytes inside it.
        let (dcba, hgfe) = unsafe {
            let words: *const __m128i = state.as_ptr().cast();
            (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 bytes; the four unaligned loads
            // read 16 bytes each inside it.
            let mut w = unsafe {
                let words: *const __m128i = block.as_ptr().cast();
                [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(words.add(i)), be_words))
            };
            // Four rounds per step: add the round constants, run two
            // rounds on the low words, two on the high ones.
            macro_rules! quad {
                ($quad:expr, $w:expr) => {{
                    let wk = _mm_add_epi32($w, round_constants($quad));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }};
            }
            quad!(0, w[0]);
            quad!(1, w[1]);
            quad!(2, w[2]);
            quad!(3, w[3]);
            for quad in (4..16).step_by(4) {
                w[0] = schedule(w[0], w[1], w[2], w[3]);
                quad!(quad, w[0]);
                w[1] = schedule(w[1], w[2], w[3], w[0]);
                quad!(quad + 1, w[1]);
                w[2] = schedule(w[2], w[3], w[0], w[1]);
                quad!(quad + 2, w[2]);
                w[3] = schedule(w[3], w[0], w[1], w[2]);
                quad!(quad + 3, w[3]);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above, two 16-byte unaligned stores
        // inside the 32-byte `state`.
        unsafe {
            let words: *mut __m128i = state.as_mut_ptr().cast();
            _mm_storeu_si128(words, dcba);
            _mm_storeu_si128(words.add(1), hgef);
        }
    }
}

/// Number of 64-byte blocks `len` message bytes occupy once padded.
fn padded_block_count(len: usize) -> usize {
    len / 64 + if len % 64 < 56 { 1 } else { 2 }
}

/// The `index`-th 64-byte block of `msg` under SHA-256 padding: message
/// bytes, then `0x80`, zeros, and the big-endian bit length in the last
/// 8 bytes of the final block.
fn padded_block(msg: &[u8], index: usize) -> [u8; 64] {
    let start = index * 64;
    if let Some(body) = msg.get(start..start + 64) {
        return body.try_into().expect("64-byte slice");
    }
    let mut block = [0u8; 64];
    if start <= msg.len() {
        let tail = &msg[start..];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
    }
    if index == padded_block_count(msg.len()) - 1 {
        block[56..].copy_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
    }
    block
}

/// Hashes `L` messages in lock-step, one padded block per lane per
/// compression pass. Lanes whose (padded) message is shorter than the
/// longest simply stop accumulating: the pass still computes their
/// rounds on a dummy block but masks the state feed-forward, keeping
/// every lane loop a fixed-trip-count, branch-free candidate for
/// auto-vectorization.
fn digest_lanes<const L: usize>(msgs: &[&[u8]; L]) -> [Digest; L] {
    let mut states = [[0u32; L]; 8];
    for (word, init) in states.iter_mut().zip(H0) {
        *word = [init; L];
    }
    let mut nblocks = [0usize; L];
    for l in 0..L {
        nblocks[l] = padded_block_count(msgs[l].len());
    }
    let max_blocks = *nblocks.iter().max().expect("L > 0");

    let mut blocks = [[0u8; 64]; L];
    let mut active = [true; L];
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    for j in 0..max_blocks {
        for l in 0..L {
            active[l] = j < nblocks[l];
            if active[l] {
                blocks[l] = padded_block(msgs[l], j);
            }
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: guarded by the runtime AVX2 detection above.
            unsafe { compress_lanes_avx2(&mut states, &blocks, &active) };
            continue;
        }
        compress_lanes(&mut states, &blocks, &active);
    }

    let mut out = [Digest::ZERO; L];
    for (l, digest) in out.iter_mut().enumerate() {
        let mut bytes = [0u8; 32];
        for (word, chunk) in states.iter().zip(bytes.chunks_exact_mut(4)) {
            chunk.copy_from_slice(&word[l].to_be_bytes());
        }
        *digest = Digest::new(bytes);
    }
    out
}

/// [`compress_lanes`] compiled with AVX2 enabled, so the
/// auto-vectorizer can use 256-bit lanes (the portable build targets
/// baseline x86-64 and would otherwise be limited to SSE2). Same code,
/// different codegen; selected at runtime by feature detection.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress_lanes_avx2<const L: usize>(
    states: &mut [[u32; L]; 8],
    blocks: &[[u8; 64]; L],
    active: &[bool; L],
) {
    compress_lanes(states, blocks, active);
}

/// `L`-lane compression in structure-of-arrays form: every working
/// variable is an `[u32; L]` and every operation is a fixed-length lane
/// loop, so the compiler vectorizes each one into `L`-wide SIMD (or at
/// worst schedules the independent lanes across scalar ports). The
/// message schedule is held as a rolling 16-entry window rather than
/// the expanded 64 to keep the working set in registers/L1.
#[inline(always)]
fn compress_lanes<const L: usize>(
    states: &mut [[u32; L]; 8],
    blocks: &[[u8; 64]; L],
    active: &[bool; L],
) {
    let mut w = [[0u32; L]; 16];
    for (t, wt) in w.iter_mut().enumerate() {
        for l in 0..L {
            let chunk = &blocks[l][t * 4..t * 4 + 4];
            wt[l] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *states;
    let mut t1 = [0u32; L];
    let mut t2 = [0u32; L];
    for i in 0..64 {
        if i >= 16 {
            let mut next = [0u32; L];
            for l in 0..L {
                let w15 = w[(i - 15) % 16][l];
                let w2 = w[(i - 2) % 16][l];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                next[l] = w[i % 16][l]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i - 7) % 16][l])
                    .wrapping_add(s1);
            }
            w[i % 16] = next;
        }
        let wt = &w[i % 16];
        for l in 0..L {
            let big_s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ ((!e[l]) & g[l]);
            t1[l] = h[l]
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(wt[l]);
            let big_s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = big_s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..L {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..L {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }

    for (word, vars) in states.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for l in 0..L {
            if active[l] {
                word[l] = word[l].wrapping_add(vars[l]);
            }
        }
    }
}

/// HMAC-SHA256 per RFC 2104.
///
/// Used for deterministic nonce derivation in [`crate::schnorr`] and
/// [`crate::cosi`] (in the spirit of RFC 6979), which keeps the whole
/// system reproducible without an OS random number generator.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(Sha256::digest(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }

    let inner = {
        let mut h = Sha256::new();
        h.update(&ipad);
        h.update(message);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(&opad);
    h.update(inner.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string() {
        assert_eq!(
            Sha256::digest(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Sha256::digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            Sha256::digest(msg).to_hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 500, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn digest_parts_concatenates() {
        assert_eq!(Sha256::digest_parts(&[b"ab", b"c"]), Sha256::digest(b"abc"));
    }

    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(Sha256::digest(b"x"), Sha256::digest(b"y"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }

    #[test]
    fn padded_block_count_boundaries() {
        for (len, want) in [
            (0usize, 1usize),
            (1, 1),
            (55, 1),
            (56, 2),
            (63, 2),
            (64, 2),
            (119, 2),
            (120, 3),
            (128, 3),
        ] {
            assert_eq!(padded_block_count(len), want, "len {len}");
        }
    }

    #[test]
    fn lanes_match_scalar_across_block_boundaries() {
        // Lengths chosen to straddle every padding case: empty, short,
        // the 55/56 one-vs-two-block boundary, exact multiples of 64,
        // and a long multi-block tail — mixed within one lane group so
        // the masking path is exercised.
        let lens = [0usize, 1, 31, 55, 56, 63, 64, 65, 119, 120, 127, 128, 300];
        let data: Vec<Vec<u8>> = lens
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        for window in data.windows(4) {
            let msgs: [&[u8]; 4] = [&window[0], &window[1], &window[2], &window[3]];
            let got = digest_lanes::<4>(&msgs);
            for (m, d) in msgs.iter().zip(got) {
                assert_eq!(d, Sha256::digest(m), "len {}", m.len());
            }
        }
        for window in data.windows(8) {
            let msgs: [&[u8]; 8] = std::array::from_fn(|i| window[i].as_slice());
            let got = digest_lanes::<8>(&msgs);
            for (m, d) in msgs.iter().zip(got) {
                assert_eq!(d, Sha256::digest(m), "len {}", m.len());
            }
        }
    }

    #[test]
    fn digest_many_matches_scalar() {
        // 13 messages: the 8-lane path hashes one 8-lane group, one
        // 4-lane group and a scalar tail, the 4-lane path three groups
        // and a tail, whichever backend this CPU picks for `digest_many`.
        let data: Vec<Vec<u8>> = (0..13u32)
            .map(|i| (0..(i * 37) % 200).map(|j| (i + j) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expected: Vec<Digest> = refs.iter().map(|m| Sha256::digest(m)).collect();
        assert_eq!(Sha256::digest_many(&refs), expected);
        assert_eq!(digest_many_lanes::<8>(&refs), expected);
        assert_eq!(digest_many_lanes::<4>(&refs), expected);
    }

    #[test]
    fn hardware_compression_matches_portable() {
        // On a CPU without SHA-NI both sides are the portable code; on
        // one with it, every block below runs through both backends.
        let mut hw = H0;
        let mut portable = H0;
        for i in 0..64u32 {
            let block: [u8; 64] = std::array::from_fn(|j| (i * 31 + j as u32 * 7) as u8);
            compress(&mut hw, &block);
            compress_portable(&mut portable, &block);
            assert_eq!(hw, portable, "block {i}");
        }
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
            assert_eq!(Sha256::digest(&data), digest_portable(&data), "len {len}");
        }
    }

    #[test]
    fn digest_many_empty_and_single() {
        assert!(Sha256::digest_many(&[]).is_empty());
        assert_eq!(Sha256::digest_many(&[b"abc"]), vec![Sha256::digest(b"abc")]);
    }

    #[test]
    fn length_extension_padding_boundaries() {
        // Messages of lengths around the 55/56-byte padding boundary.
        for len in 50..70usize {
            let data = vec![0x41u8; len];
            let d1 = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
