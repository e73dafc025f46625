// Byte-slice and owned-key primitives shared across all Sphinx modules.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace sphinx {

// A non-owning view over a contiguous byte sequence. Keys and values flow
// through the index API as Slices; ownership stays with the caller.
class Slice {
 public:
  constexpr Slice() noexcept : data_(nullptr), size_(0) {}
  constexpr Slice(const char* data, size_t size) noexcept
      : data_(data), size_(size) {}
  Slice(const uint8_t* data, size_t size) noexcept
      : data_(reinterpret_cast<const char*>(data)), size_(size) {}
  Slice(const std::string& s) noexcept : data_(s.data()), size_(s.size()) {}
  constexpr Slice(std::string_view sv) noexcept
      : data_(sv.data()), size_(sv.size()) {}
  Slice(const char* cstr) noexcept : data_(cstr), size_(std::strlen(cstr)) {}

  constexpr const char* data() const noexcept { return data_; }
  const uint8_t* bytes() const noexcept {
    return reinterpret_cast<const uint8_t*>(data_);
  }
  constexpr size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }

  uint8_t operator[](size_t i) const noexcept {
    assert(i < size_);
    return static_cast<uint8_t>(data_[i]);
  }

  // First `n` bytes (clamped to size).
  Slice prefix(size_t n) const noexcept {
    return Slice(data_, n < size_ ? n : size_);
  }

  std::string to_string() const { return std::string(data_, size_); }
  std::string_view view() const noexcept {
    return std::string_view(data_, size_);
  }

  int compare(const Slice& other) const noexcept {
    const size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = min_len == 0 ? 0 : std::memcmp(data_, other.data_, min_len);
    if (r != 0) return r;
    if (size_ < other.size_) return -1;
    if (size_ > other.size_) return 1;
    return 0;
  }

  bool operator==(const Slice& other) const noexcept {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
  }
  bool operator!=(const Slice& other) const noexcept {
    return !(*this == other);
  }
  bool operator<(const Slice& other) const noexcept {
    return compare(other) < 0;
  }

  bool starts_with(const Slice& prefix) const noexcept {
    return size_ >= prefix.size_ &&
           (prefix.size_ == 0 ||
            std::memcmp(data_, prefix.data_, prefix.size_) == 0);
  }

  // Length of the longest common prefix with `other`.
  size_t common_prefix_len(const Slice& other) const noexcept {
    const size_t n = size_ < other.size_ ? size_ : other.size_;
    size_t i = 0;
    while (i < n && data_[i] == other.data_[i]) ++i;
    return i;
  }

 private:
  const char* data_;
  size_t size_;
};

// Encodes a u64 as an 8-byte big-endian key so that lexicographic byte order
// matches numeric order (required for range scans over integer keys).
inline std::string encode_u64_key(uint64_t v) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  return out;
}

inline uint64_t decode_u64_key(const Slice& s) {
  assert(s.size() == 8);
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) v = (v << 8) | s[i];
  return v;
}

}  // namespace sphinx
