/**
 * @file
 * FNV-1a 64: the one byte hash behind every checksum and content key
 * in the tree (trace and checkpoint containers, run fingerprints,
 * stream digests and string-derived RNG seeds).
 *
 * Every on-disk format stores values computed here, so the function
 * is frozen: changing it would orphan every existing trace-cache
 * entry and checkpoint. tests/common/test_checksum.cc pins
 * the published vectors and the derived values.
 */

#ifndef TDP_COMMON_CHECKSUM_HH
#define TDP_COMMON_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <utility>

namespace tdp {

/** FNV-1a 64-bit offset basis. */
constexpr uint64_t fnv1aBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit prime: hash = (hash ^ byte) * fnv1aPrime per byte. */
constexpr uint64_t fnv1aPrime = 0x100000001b3ull;

/** FNV-1a 64-bit hash of a byte range, chainable via `seed`. */
uint64_t fnv1a64(const void *data, size_t len,
                 uint64_t seed = fnv1aBasis);

/**
 * Two FNV-1a 64 chains over the same bytes, advanced in one loop:
 * returns {fnv1a64(data, len, seedA), fnv1a64(data, len, seedB)}.
 * Each chain is one serial multiply per byte, so interleaving two
 * independent chains costs about what one does. The checkpoint
 * container hashes each section from the basis and onward from the
 * running whole-file hash this way.
 */
std::pair<uint64_t, uint64_t> fnv1a64Pair(const void *data, size_t len,
                                          uint64_t seedA,
                                          uint64_t seedB);

} // namespace tdp

#endif // TDP_COMMON_CHECKSUM_HH
