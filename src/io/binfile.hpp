// Versioned, checksummed binary section container.
//
// The checkpoint/restart path (src/resilience/checkpoint.*) must detect a
// truncated or bit-flipped file and reject it with a diagnosable error —
// never crash, never silently restart from garbage.  This container gives
// it that property generically:
//
//   file   := magic[8] version:u32 nsections:u32 header_crc:u32 section*
//   section:= id:u32 nbytes:u64 payload_crc:u32 payload[nbytes]
//
// All integers are little-endian native (the format is a single-machine
// restart artifact, not an interchange format).  header_crc covers magic,
// version and nsections; each payload carries its own CRC-32, so
// corruption is localized to a named section in the error message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace tsem {

/// CRC-32 (IEEE 802.3 polynomial, reflected).
std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0);

/// Crash-safe whole-file write: the bytes land in `path + ".tmp"`, are
/// fsync'ed, and are then atomically rename(2)d over `path`.  A process
/// killed at ANY instant therefore leaves either the old file (or no
/// file) or the complete new one at `path` — never a torn prefix that
/// passes an existence check.  A stale ".tmp" from a previous crash is
/// simply overwritten.  Returns false with *err on any failure (the temp
/// file is removed; `path` is untouched).
bool write_file_atomic(const std::string& path, const void* data,
                       std::size_t n, std::string* err = nullptr);

/// Append-only little serializer for section payloads.
class ByteWriter {
 public:
  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }
  void put_vec(const std::vector<double>& v) { put_pod_vec(v); }
  /// Length-prefixed vector of any trivially-copyable element (the setup
  /// cache serializes int32/int64 payloads beside the doubles).
  template <class T>
  void put_pod_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }
  void put_bytes(const std::vector<std::uint8_t>& v) { put_pod_vec(v); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  // resize + memcpy rather than a byte-range insert: gcc 12 misreads the
  // insert into a still-empty buffer as an overflow (-Wstringop-overflow,
  // -Warray-bounds).
  void append(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a section payload.  All getters return
/// false on overrun instead of reading past the end — including the
/// length prefixes themselves, which are validated against the remaining
/// bytes BEFORE any allocation.  That makes the reader safe even over a
/// buffer another process may be rewriting (the setup cache decodes
/// straight out of shared memory): torn bytes produce a clean false or
/// wrong-but-bounded data, never an attempted multi-terabyte resize.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  /// View over raw bytes the caller keeps alive (zero-copy attach path).
  ByteReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}

  template <class T>
  bool get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool get_vec(std::vector<double>* v) { return get_pod_vec(v); }
  template <class T>
  bool get_pod_vec(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = 0;
    if (!get(&n)) return false;
    if (n > (size_ - pos_) / sizeof(T)) return false;
    v->resize(static_cast<std::size_t>(n));
    // An empty vector's data() may be null, and memcpy's pointers must
    // not be even for a zero-byte copy.
    if (n == 0) return true;
    std::memcpy(v->data(), data_ + pos_, n * sizeof(T));
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return true;
  }
  bool get_bytes(std::vector<std::uint8_t>* v) { return get_pod_vec(v); }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Write a section container.  Sections are written in insertion order.
class BinFileWriter {
 public:
  BinFileWriter(const char magic[8], std::uint32_t version);
  void add_section(std::uint32_t id, std::vector<std::uint8_t> payload);
  /// Atomic, crash-safe write via write_file_atomic: the container is
  /// assembled in memory, written to `path + ".tmp"`, fsync'ed, and
  /// renamed into place.  A writer killed mid-write can never leave a
  /// torn file at `path`; the per-section CRCs remain the second line of
  /// defense against bytes corrupted after the write.
  bool write(const std::string& path, std::string* err = nullptr) const;

 private:
  char magic_[8];
  std::uint32_t version_;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections_;
};

/// Read and fully validate a section container: magic, version, header
/// CRC, section framing and every payload CRC.  Returns false with a
/// specific *err message on the first defect found.
bool read_bin_file(const std::string& path, const char magic[8],
                   std::uint32_t expected_version,
                   std::map<std::uint32_t, std::vector<std::uint8_t>>* out,
                   std::string* err = nullptr);

}  // namespace tsem
