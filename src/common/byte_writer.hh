/**
 * @file
 * Append-only little-endian serializer behind both on-disk
 * containers: trace files (TDPT) and stream checkpoints (TDPC).
 *
 * Scalars are stored as their raw bytes; doubles go through their
 * bit pattern, so NaN payloads and -0.0 round-trip exactly. The
 * formats are little-endian and the writer stores host bytes, so it
 * only builds on little-endian hosts. Each append is an inline
 * capacity check plus one memcpy; growth is the only out-of-line
 * path. A writer kept across calls (clear() keeps the allocation)
 * serializes without touching the allocator once warm. Length and
 * checksum fields written before their value is known are reserved
 * and filled in afterwards with patch().
 */

#ifndef TDP_COMMON_BYTE_WRITER_HH
#define TDP_COMMON_BYTE_WRITER_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

namespace tdp {

static_assert(std::endian::native == std::endian::little,
              "ByteWriter stores host bytes as the little-endian "
              "on-disk formats");

class ByteWriter
{
  public:
    void u8(uint8_t v) { append(&v, sizeof v); }
    void u32(uint32_t v) { append(&v, sizeof v); }
    void u64(uint64_t v) { append(&v, sizeof v); }
    void f64(double v) { append(&v, sizeof v); }
    void
    bytes(const void *p, size_t n)
    {
        if (n != 0)
            append(p, n);
    }

    /** Overwrite the scalar at byte @p offset (already written). */
    template <typename T>
    void
    patch(size_t offset, T v)
    {
        std::memcpy(data_.get() + offset, &v, sizeof v);
    }

    /** Make room for @p n bytes in total without a later regrowth. */
    void
    reserve(size_t n)
    {
        if (n > capacity_)
            grow(n);
    }

    /** Drop the contents and keep the allocation. */
    void clear() { size_ = 0; }

    const unsigned char *data() const { return data_.get(); }
    size_t size() const { return size_; }

  private:
    void
    append(const void *p, size_t n)
    {
        if (capacity_ - size_ < n)
            grow(size_ + n);
        std::memcpy(data_.get() + size_, p, n);
        size_ += n;
    }

    /** Reallocate to at least @p n bytes (and at least double). */
    void grow(size_t n);

    std::unique_ptr<unsigned char[]> data_;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

} // namespace tdp

#endif // TDP_COMMON_BYTE_WRITER_HH
