//! Hashing utilities: FNV-1a and deterministic pseudo-random vectors.

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash of a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// Continue the FNV-1a hash `h` over more bytes:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`, so a string can be
/// hashed piece by piece without being assembled.
#[must_use]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: turns a hash into a stream of well-mixed u64s.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fill `out` with a deterministic unit-scaled pseudo-random vector
/// derived from a seed hash. Out-of-vocabulary subwords get stable
/// directions this way, so unseen-but-similar spellings share geometry
/// without any training. Writing into the caller's buffer lets the
/// embedder hash every n-gram of a word into one allocation.
pub fn hash_vector(seed: u64, out: &mut [f32]) {
    let mut state = seed;
    for x in out.iter_mut() {
        // Map to (-1, 1).
        let u = splitmix64(&mut state);
        *x = (u as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32;
    }
    let norm = out.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in out {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"));
    }

    #[test]
    fn fnv_extends_piecewise() {
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b""), fnv1a(b""));
    }

    #[test]
    fn hash_vectors_unit_norm_and_stable() {
        let hashed = |seed| {
            let mut v = [7.0f32; 16];
            hash_vector(seed, &mut v);
            v
        };
        let a = hashed(42);
        assert_eq!(a, hashed(42));
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_ne!(a, hashed(43));
        let mut empty: [f32; 0] = [];
        hash_vector(42, &mut empty);
    }

    #[test]
    fn splitmix_progresses() {
        let mut s = 1u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
    }
}
