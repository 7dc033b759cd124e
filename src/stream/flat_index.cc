/**
 * @file
 * Implementation of the flat open-addressing client index.
 */

#include "stream/flat_index.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace tdp {
namespace stream {

namespace {

/** Domain salt: this hash stream is private to the index. */
constexpr uint64_t indexSaltA = 0xf1a7c11e47ull;

/** Smallest power of two >= n (and >= 16). */
size_t
roundUpPow2(size_t n)
{
    size_t p = 16;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

FlatClientIndex::FlatClientIndex(size_t capacityHint)
{
    rehash(roundUpPow2(capacityHint * 2));
}

size_t
FlatClientIndex::homeOf(uint64_t client) const
{
    return static_cast<size_t>(mixHash(client, indexSaltA, 0)) & mask_;
}

uint32_t
FlatClientIndex::find(uint64_t client) const
{
    size_t i = homeOf(client);
    while (buckets_[i].row != kNoRow) {
        if (buckets_[i].client == client)
            return buckets_[i].row;
        i = (i + 1) & mask_;
    }
    return kNoRow;
}

void
FlatClientIndex::insert(uint64_t client, uint32_t row)
{
    if (row == kNoRow)
        fatal("FlatClientIndex: row %u is the empty sentinel", row);
    // Keep the max load factor at 7/8: probe runs stay short and the
    // backward-shift erase stays cheap.
    if ((size_ + 1) * 8 > buckets_.size() * 7)
        rehash(buckets_.size() * 2);
    size_t i = homeOf(client);
    while (buckets_[i].row != kNoRow) {
        if (buckets_[i].client == client)
            fatal("FlatClientIndex: duplicate insert of client %llu",
                  static_cast<unsigned long long>(client));
        i = (i + 1) & mask_;
    }
    buckets_[i].client = client;
    buckets_[i].row = row;
    ++size_;
}

void
FlatClientIndex::set(uint64_t client, uint32_t row)
{
    if (row == kNoRow)
        fatal("FlatClientIndex: row %u is the empty sentinel", row);
    size_t i = homeOf(client);
    while (buckets_[i].row != kNoRow) {
        if (buckets_[i].client == client) {
            buckets_[i].row = row;
            return;
        }
        i = (i + 1) & mask_;
    }
    fatal("FlatClientIndex: set() on absent client %llu",
          static_cast<unsigned long long>(client));
}

void
FlatClientIndex::erase(uint64_t client)
{
    size_t i = homeOf(client);
    while (true) {
        if (buckets_[i].row == kNoRow)
            fatal("FlatClientIndex: erase() on absent client %llu",
                  static_cast<unsigned long long>(client));
        if (buckets_[i].client == client)
            break;
        i = (i + 1) & mask_;
    }

    // Backward-shift deletion: walk the probe run after the hole and
    // slide back every entry whose probe distance reaches the hole,
    // so no tombstone is ever needed and runs stay minimal.
    size_t hole = i;
    i = (i + 1) & mask_;
    while (buckets_[i].row != kNoRow) {
        const size_t home = homeOf(buckets_[i].client);
        // Movable iff the hole lies within [home, i) cyclically,
        // i.e. the entry's displacement covers the hole.
        if (((i - home) & mask_) >= ((i - hole) & mask_)) {
            buckets_[hole] = buckets_[i];
            hole = i;
        }
        i = (i + 1) & mask_;
    }
    buckets_[hole].row = kNoRow;
    --size_;
}

void
FlatClientIndex::verifyInvariants() const
{
    size_t occupied = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i].row == kNoRow)
            continue;
        ++occupied;
        // The entry must be reachable by the probe loop: every slot
        // from its home up to (and excluding) its position must be
        // occupied, else find() would stop at the gap and miss it.
        const uint64_t client = buckets_[i].client;
        size_t probe = homeOf(client);
        while (probe != i) {
            if (buckets_[probe].row == kNoRow)
                fatal("FlatClientIndex: client %llu at bucket %zu is "
                      "unreachable (empty bucket %zu inside its probe "
                      "run from home %zu)",
                      static_cast<unsigned long long>(client), i,
                      probe, homeOf(client));
            probe = (probe + 1) & mask_;
        }
        if (find(client) != buckets_[i].row)
            fatal("FlatClientIndex: client %llu resolves to the wrong "
                  "row",
                  static_cast<unsigned long long>(client));
    }
    if (occupied != size_)
        fatal("FlatClientIndex: %zu occupied buckets but size() is "
              "%zu",
              occupied, size_);
}

void
FlatClientIndex::rehash(size_t newCapacity)
{
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(newCapacity, Bucket{});
    mask_ = newCapacity - 1;
    for (const Bucket &bucket : old) {
        if (bucket.row == kNoRow)
            continue;
        size_t i = homeOf(bucket.client);
        while (buckets_[i].row != kNoRow)
            i = (i + 1) & mask_;
        buckets_[i] = bucket;
    }
}

} // namespace stream
} // namespace tdp
