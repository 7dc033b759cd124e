/**
 * @file
 * Implementation of the FNV-1a 64 hash.
 */

#include "common/checksum.hh"

namespace tdp {

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    constexpr uint64_t prime = 0x100000001b3ull;
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= prime;
    }
    return hash;
}

} // namespace tdp
