//! SHA-256, the trace store's content-ID function.
//!
//! [`sha256`] picks its block function at run time: on x86-64 hosts whose
//! CPU reports the SHA extensions (`is_x86_feature_detected!("sha")`, plus
//! SSSE3 and SSE4.1 for the byte shuffles and lane extracts around them) it runs
//! the `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions; anywhere
//! else it runs the portable scalar [`sha_block`]. Both paths share the
//! padding code and produce the same digest, so a store written on one
//! host verifies on any other.

const SHA_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn sha_block(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA_K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *s = s.wrapping_add(v);
    }
}

/// Hash `data` with `compress`, which folds a whole number of 64-byte
/// blocks into the state. The padded tail (one or two blocks) is built
/// here, so every block function sees only complete blocks.
fn digest(data: &[u8], mut compress: impl FnMut(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut h = SHA_H0;
    let whole = data.len() - data.len() % 64;
    compress(&mut h, &data[..whole]);
    let rem = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() >= 56 { 128 } else { 64 };
    tail[tail_len - 8..tail_len].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    compress(&mut h, &tail[..tail_len]);
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 on the scalar block function, whatever the host.
pub(crate) fn sha256_portable(data: &[u8]) -> [u8; 32] {
    digest(data, |h, blocks| {
        for block in blocks.chunks_exact(64) {
            sha_block(h, block.try_into().expect("exact chunk"));
        }
    })
}

/// SHA-256 of `data` (the store's content-ID function), on the host's
/// SHA instructions when it has them.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        return digest(data, |h, blocks| {
            // SAFETY: `shani::detected()` above confirmed at run time that
            // this CPU has every feature `shani::compress` enables (sha,
            // ssse3, sse4.1).
            unsafe { shani::compress(h, blocks) }
        });
    }
    sha256_portable(data)
}

#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    /// Whether this CPU can run [`compress`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four rounds: add the round constants to the four schedule words
    /// in `w` and run two `sha256rnds2`, two rounds each.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &super::SHA_K[4 * i..4 * i + 4];
        let wk =
            _mm_add_epi32(w, _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The next four message-schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Fold every 64-byte block of `blocks` (a whole number of them) into
    /// `state`. The instructions keep the state as the register pair
    /// ABEF / CDGH, so it is repacked on entry and on exit.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let s = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        // Big-endian word loads: reverse the bytes within each u32.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes long, so the four 16-byte reads
            // at offsets 0, 16, 32 and 48 are in bounds; `loadu` has no
            // alignment requirement; and SSE2, which it needs, is part of
            // the x86-64 baseline.
            let raw = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            let [mut w0, mut w1, mut w2, mut w3] = raw.map(|v| _mm_shuffle_epi8(v, bswap));
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Rounds 16..64: each new group of four schedule words replaces
            // the oldest of the four held, so all of them stay in registers.
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        // ABEF holds A, B, E, F in lanes 3, 2, 1, 0; CDGH likewise.
        let (a, b, e, f) = (
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
        );
        let (c, d, g, h) = (
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        );
        *state = [a, b, c, d, e, f, g, h].map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::cid_hex;

    /// The portable digest of `data`, after checking that the dispatched
    /// [`sha256`] and, where the CPU has it, the SHA-NI path agree with it.
    fn both(data: &[u8]) -> [u8; 32] {
        let portable = sha256_portable(data);
        assert_eq!(sha256(data), portable, "dispatched vs portable at len {}", data.len());
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            // SAFETY: `shani::detected()` just confirmed that this CPU has
            // every feature `shani::compress` enables.
            let hw = digest(data, |h, blocks| unsafe { shani::compress(h, blocks) });
            assert_eq!(hw, portable, "SHA-NI vs portable at len {}", data.len());
        }
        portable
    }

    #[test]
    fn both_paths_match_nist_vectors() {
        assert_eq!(
            cid_hex(&both(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            cid_hex(&both(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            cid_hex(&both(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            cid_hex(&both(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
        assert_eq!(
            cid_hex(&both(&[0x61u8; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn both_paths_agree_on_every_short_length_and_a_large_buffer() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut noise = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        let buf: Vec<u8> = (0..4 << 20).map(|_| noise()).collect();
        // Every length through 300 crosses the 55/56/64-byte padding edges
        // several times over.
        for n in 0..=300 {
            both(&buf[..n]);
        }
        both(&buf);
    }
}
