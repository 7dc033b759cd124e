/**
 * @file
 * The shared little-endian serializer: exact byte layout, patching
 * reserved fields, growth past the reserved capacity, and reuse of
 * the allocation after clear().
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/byte_writer.hh"

namespace tdp {
namespace {

template <typename T>
T
readAt(const ByteWriter &w, size_t offset)
{
    T v;
    std::memcpy(&v, w.data() + offset, sizeof v);
    return v;
}

TEST(ByteWriter, RoundTripsPatchesAndGrowsPastReserve)
{
    ByteWriter w;
    w.reserve(16);
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    const size_t countAt = w.size();
    w.u64(0); // patched below
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.bytes("xyz", 3);
    w.bytes(nullptr, 0);
    const size_t head = w.size();
    ASSERT_EQ(head, 1u + 4 + 8 + 8 + 8 + 3);

    // Far past the reserve: several regrowths, earlier bytes kept.
    constexpr uint64_t values = 1000;
    for (uint64_t i = 0; i < values; ++i)
        w.u64(i * 0x0101010101010101ull);
    w.patch(countAt, values);

    ASSERT_EQ(w.size(), head + 8 * values);
    EXPECT_EQ(w.data()[0], 0xab);
    // Little-endian on disk: least significant byte first.
    EXPECT_EQ(w.data()[1], 0xef);
    EXPECT_EQ(w.data()[4], 0xde);
    EXPECT_EQ(readAt<uint32_t>(w, 1), 0xdeadbeefu);
    EXPECT_EQ(readAt<uint64_t>(w, countAt), values);
    const double zero = readAt<double>(w, 13);
    EXPECT_EQ(zero, 0.0);
    EXPECT_TRUE(std::signbit(zero));
    EXPECT_TRUE(std::isnan(readAt<double>(w, 21)));
    EXPECT_EQ(std::memcmp(w.data() + 29, "xyz", 3), 0);
    for (uint64_t i = 0; i < values; ++i)
        ASSERT_EQ(readAt<uint64_t>(w, head + 8 * i),
                  i * 0x0101010101010101ull)
            << i;
}

TEST(ByteWriter, ClearKeepsTheAllocation)
{
    ByteWriter w;
    for (int i = 0; i < 100; ++i)
        w.u64(static_cast<uint64_t>(i));
    const unsigned char *buffer = w.data();
    w.clear();
    EXPECT_EQ(w.size(), 0u);
    for (int i = 0; i < 100; ++i)
        w.u64(static_cast<uint64_t>(~i));
    EXPECT_EQ(w.data(), buffer);
    EXPECT_EQ(readAt<uint64_t>(w, 0), ~uint64_t{0});
}

} // namespace
} // namespace tdp
