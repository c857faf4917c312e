//! 64-bit FNV-1a: the one hash behind router home shards, per-task CRPD
//! working sets and every report digest in the workspace.

/// FNV-1a offset basis (64-bit): the digest of the empty byte string, and
/// the starting accumulator of an [`fnv1a_combine`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

#[inline]
fn fold(acc: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(acc, |acc, b| (acc ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over a byte string.
// `#[inline]`: the shard router hashes every arrival, so the hash must
// stay inlinable across the crate boundary.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(FNV_OFFSET, bytes)
}

/// Order-sensitive combination of digests: folds the little-endian bytes
/// of `digest` into the accumulator `acc`.
#[inline]
pub fn fnv1a_combine(acc: u64, digest: u64) -> u64 {
    fold(acc, &digest.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn combining_continues_the_byte_stream() {
        let digest = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(
            fnv1a_combine(FNV_OFFSET, digest),
            fnv1a(&digest.to_le_bytes())
        );
    }
}
