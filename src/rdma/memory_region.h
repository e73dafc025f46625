// Memory-node backing store. All remote memory is an array of 8-byte words
// accessed through std::atomic_ref, so concurrent clients observe exactly
// the tearing granularity real RDMA NICs guarantee: reads and writes are
// atomic per 8-byte aligned word, CAS/FAA are fully atomic, and multi-word
// transfers may interleave (which is why leaf nodes carry checksums and
// nodes carry status words, per Sec. III-C of the paper).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace sphinx::rdma {

class MemoryRegion {
 public:
  // The words come from calloc, so they start zeroed ("all zeroes ==
  // empty" holds throughout) without being written here: the OS hands out
  // zero pages and commits each on first touch, and a large region costs
  // only what the index actually uses.
  explicit MemoryRegion(uint64_t size_bytes)
      : size_(round_up_words(size_bytes)),
        words_(static_cast<uint64_t*>(std::calloc(size_ / 8, 8))) {
    if (words_ == nullptr && size_ > 0) throw std::bad_alloc();
  }

  uint64_t size() const { return size_; }

  // --- one-sided READ/WRITE payload transfer -------------------------------
  // Offsets must be 8-byte aligned (all Sphinx remote structures are);
  // lengths may be arbitrary, with the trailing partial word handled via a
  // read-modify-write that is safe under the index's locking protocol.

  void read_bytes(uint64_t offset, void* dst, size_t len) const {
    assert(offset % 8 == 0);
    assert(offset + len <= size_);
    auto* out = static_cast<uint8_t*>(dst);
    uint64_t idx = offset / 8;
    while (len >= 8) {
      const uint64_t w = word(idx).load(std::memory_order_acquire);
      std::memcpy(out, &w, 8);
      out += 8;
      len -= 8;
      ++idx;
    }
    if (len > 0) {
      const uint64_t w = word(idx).load(std::memory_order_acquire);
      std::memcpy(out, &w, len);
    }
  }

  void write_bytes(uint64_t offset, const void* src, size_t len) {
    assert(offset % 8 == 0);
    assert(offset + len <= size_);
    const auto* in = static_cast<const uint8_t*>(src);
    uint64_t idx = offset / 8;
    while (len >= 8) {
      uint64_t w;
      std::memcpy(&w, in, 8);
      word(idx).store(w, std::memory_order_release);
      in += 8;
      len -= 8;
      ++idx;
    }
    if (len > 0) {
      uint64_t w = word(idx).load(std::memory_order_relaxed);
      std::memcpy(&w, in, len);
      word(idx).store(w, std::memory_order_release);
    }
  }

  // --- 8-byte atomics (RDMA READ/WRITE of a word, CAS, FAA) ----------------

  uint64_t load64(uint64_t offset) const {
    assert(offset % 8 == 0 && offset + 8 <= size_);
    return word(offset / 8).load(std::memory_order_acquire);
  }

  void store64(uint64_t offset, uint64_t value) {
    assert(offset % 8 == 0 && offset + 8 <= size_);
    word(offset / 8).store(value, std::memory_order_release);
  }

  // Returns true on success; *observed receives the pre-existing value
  // either way (matching RDMA CAS, which always returns the old value).
  bool cas64(uint64_t offset, uint64_t expected, uint64_t desired,
             uint64_t* observed) {
    assert(offset % 8 == 0 && offset + 8 <= size_);
    uint64_t exp = expected;
    const bool ok = word(offset / 8).compare_exchange_strong(
        exp, desired, std::memory_order_acq_rel, std::memory_order_acquire);
    if (observed != nullptr) *observed = exp;
    return ok;
  }

  uint64_t faa64(uint64_t offset, uint64_t delta) {
    assert(offset % 8 == 0 && offset + 8 <= size_);
    return word(offset / 8).fetch_add(delta, std::memory_order_acq_rel);
  }

 private:
  static uint64_t round_up_words(uint64_t n) { return (n + 7) & ~7ULL; }

  static_assert(std::atomic_ref<uint64_t>::required_alignment <=
                alignof(std::max_align_t));  // calloc's alignment suffices
  std::atomic_ref<uint64_t> word(uint64_t idx) const {
    return std::atomic_ref<uint64_t>(words_.get()[idx]);
  }

  struct Free {
    void operator()(uint64_t* p) const { std::free(p); }
  };

  uint64_t size_;
  std::unique_ptr<uint64_t[], Free> words_;
};

}  // namespace sphinx::rdma
