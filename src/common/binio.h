// Checksummed little-endian binary file I/O.
//
// Backs the persistence of datasets and R*-trees (save once, reload across
// sessions without rebuilding). Format discipline: an 8-byte magic, a
// fixed-width header, the payload, and a trailing FNV-1a checksum covering
// everything after the magic. Readers verify the checksum before any
// loaded structure is handed to the caller.

#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "common/status.h"

namespace skydiver {

/// Incremental 64-bit FNV-1a.
class Fnv1a {
 public:
  void Update(const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Buffered writer with running checksum (checksum excludes the magic).
class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the 8-byte `magic`.
  BinaryWriter(const std::string& path, const char magic[8]);

  bool ok() const { return static_cast<bool>(out_); }

  void WriteU8(uint8_t v) { WriteRaw(&v, 1); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteDouble(double v);
  void WriteBytes(const void* data, size_t len) { WriteRaw(data, len); }

  /// Appends the checksum and flushes. Returns IoError on write failure.
  [[nodiscard]] Status Finish();

 private:
  void WriteRaw(const void* data, size_t len);
  std::ofstream out_;
  Fnv1a checksum_;
};

/// Reader mirroring BinaryWriter; all Read* return false past EOF.
class BinaryReader {
 public:
  /// Opens `path` and checks the magic. Call status() before reading.
  BinaryReader(const std::string& path, const char magic[8]);

  const Status& status() const { return status_; }

  bool ReadU8(uint8_t* v) { return ReadRaw(v, 1); }
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadDouble(double* v);
  bool ReadBytes(void* data, size_t len) { return ReadRaw(data, len); }

  /// Reads the trailing checksum and compares with the running digest.
  [[nodiscard]] Status VerifyChecksum();

  /// Bytes between the read position and the end of the file (checksum
  /// included). Loaders check header counts against it before sizing an
  /// allocation from them.
  uint64_t BytesLeft() const { return size_ - position_; }

 private:
  bool ReadRaw(void* data, size_t len);
  std::ifstream in_;
  Fnv1a checksum_;
  Status status_;
  uint64_t size_ = 0;
  uint64_t position_ = 0;
};

}  // namespace skydiver
