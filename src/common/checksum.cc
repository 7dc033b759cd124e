/**
 * @file
 * Implementation of the FNV-1a 64 hash and its two-chain form.
 */

#include "common/checksum.hh"

namespace tdp {

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= fnv1aPrime;
    }
    return hash;
}

std::pair<uint64_t, uint64_t>
fnv1a64Pair(const void *data, size_t len, uint64_t seedA, uint64_t seedB)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    uint64_t a = seedA;
    uint64_t b = seedB;
    for (size_t i = 0; i < len; ++i) {
        a = (a ^ bytes[i]) * fnv1aPrime;
        b = (b ^ bytes[i]) * fnv1aPrime;
    }
    return {a, b};
}

} // namespace tdp
