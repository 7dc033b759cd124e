/**
 * @file
 * Implementation of the FNV-1a 64 hash.
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

} // namespace tdp
