/**
 * @file
 * Growth path of the byte serializer.
 */

#include "common/byte_writer.hh"

#include <algorithm>

namespace tdp {

void
ByteWriter::grow(size_t n)
{
    const size_t capacity = std::max(n, 2 * capacity_);
    auto data = std::make_unique_for_overwrite<unsigned char[]>(capacity);
    if (size_ != 0)
        std::memcpy(data.get(), data_.get(), size_);
    data_ = std::move(data);
    capacity_ = capacity;
}

} // namespace tdp
