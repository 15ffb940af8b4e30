// The byte codec every persisted state shares: attacker checkpoints
// (core/ppo.cc), the defender's state blob (env/defended.cc) and the
// whole-file integrity footer (util/fsio.cc). Fields are fixed-width,
// native-endian and unpadded, so each encodes exactly as a memcpy of the
// value.
//
// ByteReader is bounded: the first read that would run past the end fails
// it, and from then on every read returns zero (or an empty view) and ok()
// stays false, so a parser reads a whole section and checks ok() once. A
// length or count is checked against the bytes left before the caller can
// allocate for it, so a damaged length field reads as truncation instead
// of a huge allocation.
#ifndef POISONREC_UTIL_BYTES_H_
#define POISONREC_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace poisonrec {

/// Appends fields to a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { Put(v); }
  void U32(std::uint32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void I32(std::int32_t v) { Put(v); }
  void F64(double v) { Put(v); }
  /// The floats alone, no count: the reader knows how many to expect.
  void Floats(const std::vector<float>& v) {
    out_->append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(float));
  }
  /// A u64 length, then the bytes.
  void Blob(std::string_view bytes) {
    U64(bytes.size());
    out_->append(bytes);
  }

 private:
  template <typename T>
  void Put(T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out_->append(bytes, sizeof(T));
  }

  std::string* out_;
};

/// Reads fields back from a view; the viewed bytes must outlive the
/// reader and every view Blob() returns.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  /// False once any read has run past the end (or a count or length
  /// exceeded the bytes left).
  bool ok() const { return ok_; }

  std::uint8_t U8() { return Get<std::uint8_t>(); }
  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  std::int32_t I32() { return Get<std::int32_t>(); }
  double F64() { return Get<double>(); }

  /// Fills all of `*v`, which the caller has sized, with raw floats.
  void Floats(std::vector<float>* v) {
    const char* src = Take(v->size() * sizeof(float));
    if (src != nullptr && !v->empty()) {
      std::memcpy(v->data(), src, v->size() * sizeof(float));
    }
  }

  /// A u64 length, then that many bytes, viewed in place.
  std::string_view Blob() {
    const std::uint64_t length = Count(1);
    const char* src = Take(static_cast<std::size_t>(length));
    return src == nullptr ? std::string_view()
                          : std::string_view(src, length);
  }

  /// A u64 count of elements that each take at least `element_bytes`
  /// (> 0) of what follows. Fails, returning 0, when that many elements
  /// cannot fit in the bytes left, so the count is safe to allocate for.
  std::uint64_t Count(std::size_t element_bytes) {
    const std::uint64_t count = U64();
    if (count > (bytes_.size() - pos_) / element_bytes) {
      ok_ = false;
      return 0;
    }
    return count;
  }

 private:
  template <typename T>
  T Get() {
    T v{};
    const char* src = Take(sizeof(T));
    if (src != nullptr) std::memcpy(&v, src, sizeof(T));
    return v;
  }

  /// The next `n` bytes, or nullptr (failing the reader) when fewer are
  /// left or it has failed already.
  const char* Take(std::size_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return nullptr;
    }
    const char* src = bytes_.data() + pos_;
    pos_ += n;
    return src;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace poisonrec

#endif  // POISONREC_UTIL_BYTES_H_
