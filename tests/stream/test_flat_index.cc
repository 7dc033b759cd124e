/**
 * @file
 * Tests for the open-addressing client -> row index: probe-run
 * correctness under collision clustering, backward-shift deletion,
 * growth rehashing and the fatal() misuse contracts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "stream/flat_index.hh"

namespace tdp {
namespace stream {
namespace {

TEST(FlatClientIndex, FindInsertEraseBasics)
{
    FlatClientIndex index;
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.find(42), FlatClientIndex::kNoRow);

    index.insert(42, 0);
    index.insert(7, 1);
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.find(42), 0u);
    EXPECT_EQ(index.find(7), 1u);
    EXPECT_EQ(index.find(8), FlatClientIndex::kNoRow);

    index.set(42, 5);
    EXPECT_EQ(index.find(42), 5u);

    index.erase(42);
    EXPECT_EQ(index.size(), 1u);
    EXPECT_EQ(index.find(42), FlatClientIndex::kNoRow);
    EXPECT_EQ(index.find(7), 1u);
}

TEST(FlatClientIndex, MisuseIsFatal)
{
    FlatClientIndex index;
    index.insert(1, 0);
    EXPECT_THROW(index.insert(1, 1), FatalError);
    EXPECT_THROW(index.set(2, 0), FatalError);
    EXPECT_THROW(index.erase(2), FatalError);
}

TEST(FlatClientIndex, GrowthKeepsEveryMapping)
{
    FlatClientIndex index; // default hint: growth path exercised
    constexpr uint32_t n = 50000;
    for (uint32_t i = 0; i < n; ++i)
        index.insert(1000 + i, i);
    index.verifyInvariants();
    EXPECT_EQ(index.size(), n);
    // Power-of-two capacity, load factor at most 7/8.
    EXPECT_EQ(index.capacity() & (index.capacity() - 1), 0u);
    EXPECT_GE(index.capacity() * 7, index.size() * 8);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(index.find(1000 + i), i);
}

/**
 * Backward-shift deletion must preserve every surviving probe run.
 * Churn insert/erase/re-point against a reference map with hashed
 * (deterministic) operations so displaced entries repeatedly slide
 * across erased holes and wrapped runs.
 */
TEST(FlatClientIndex, ChurnMatchesReferenceMap)
{
    FlatClientIndex index;
    std::unordered_map<uint64_t, uint32_t> reference;
    uint32_t nextRow = 0;
    constexpr int ops = 60000;
    constexpr uint64_t universe = 512; // small: dense collisions
    for (int op = 0; op < ops; ++op) {
        const uint64_t client = mixHash(0xc0ffee, op, 1) % universe;
        const uint64_t action = mixHash(0xdecaf, op, 2) % 3;
        const auto it = reference.find(client);
        if (action == 0 && it == reference.end()) {
            index.insert(client, nextRow);
            reference.emplace(client, nextRow);
            ++nextRow;
        } else if (action == 1 && it != reference.end()) {
            index.erase(client);
            reference.erase(it);
        } else if (action == 2 && it != reference.end()) {
            // The swap-with-last eviction pattern: re-point the
            // moved client at its new row.
            it->second = nextRow;
            index.set(client, nextRow);
            ++nextRow;
        }
        if (op % 1000 == 0) {
            index.verifyInvariants();
            ASSERT_EQ(index.size(), reference.size());
            for (uint64_t probe = 0; probe < universe; ++probe) {
                const auto ref = reference.find(probe);
                ASSERT_EQ(index.find(probe),
                          ref == reference.end()
                              ? FlatClientIndex::kNoRow
                              : ref->second)
                    << "op " << op << " client " << probe;
            }
        }
    }
    index.verifyInvariants();
    EXPECT_EQ(index.size(), reference.size());
    for (const auto &entry : reference)
        ASSERT_EQ(index.find(entry.first), entry.second);
}

} // namespace
} // namespace stream
} // namespace tdp
