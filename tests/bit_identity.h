// Helpers for the bit-identity tests: a running CRC32C for golden
// fixtures, which pin one digest per case so any moved bit fails it, and a
// per-element bitwise comparison of float buffers.
#ifndef POISONREC_TESTS_BIT_IDENTITY_H_
#define POISONREC_TESTS_BIT_IDENTITY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "obs/crc32c.h"

namespace poisonrec {

class Digest {
 public:
  void Bytes(const void* data, std::size_t size) {
    crc_ = obs::Crc32c(data, size, crc_);
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  template <typename T>
  void Vector(const std::vector<T>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

/// Compares the bits (memcmp) of every element, so +0 and -0 differ and
/// no tolerance hides a moved last bit.
inline ::testing::AssertionResult SameBits(const std::vector<float>& a,
                                           const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  std::size_t differing = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0 && differing++ == 0) {
      first = i;
    }
  }
  if (differing == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << differing << " of " << a.size() << " elements differ; first at "
         << first << ": " << a[first] << " vs " << b[first];
}

}  // namespace poisonrec

#endif  // POISONREC_TESTS_BIT_IDENTITY_H_
