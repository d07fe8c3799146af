#include "common/binio.h"

#include <cstring>

namespace skydiver {

namespace {

// All values are serialized little-endian regardless of host order.
template <typename T>
void ToLittleEndian(T v, unsigned char* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<unsigned char>(v & 0xff);
    v = static_cast<T>(v >> 8);
  }
}

template <typename T>
T FromLittleEndian(const unsigned char* in) {
  T v = 0;
  for (size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>((v << 8) | in[i]);
  }
  return v;
}

}  // namespace

BinaryWriter::BinaryWriter(const std::string& path, const char magic[8])
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (out_) out_.write(magic, 8);
}

void BinaryWriter::WriteRaw(const void* data, size_t len) {
  checksum_.Update(data, len);
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
}

void BinaryWriter::WriteU32(uint32_t v) {
  unsigned char buf[4];
  ToLittleEndian(v, buf);
  WriteRaw(buf, sizeof(buf));
}

void BinaryWriter::WriteU64(uint64_t v) {
  unsigned char buf[8];
  ToLittleEndian(v, buf);
  WriteRaw(buf, sizeof(buf));
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

Status BinaryWriter::Finish() {
  unsigned char buf[8];
  ToLittleEndian(checksum_.digest(), buf);
  out_.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  out_.flush();
  if (!out_) return Status::IoError("write failed while finishing file");
  return Status::OK();
}

BinaryReader::BinaryReader(const std::string& path, const char magic[8])
    : in_(path, std::ios::binary) {
  if (!in_) {
    status_ = Status::IoError("cannot open '" + path + "' for reading");
    return;
  }
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(0, std::ios::beg);
  size_ = size > 0 ? static_cast<uint64_t>(size) : 0;
  char found[8];
  in_.read(found, 8);
  if (!in_ || std::memcmp(found, magic, 8) != 0) {
    status_ = Status::InvalidArgument("'" + path + "' has the wrong magic — not a " +
                                      std::string(magic, 8) + " file");
    return;
  }
  position_ = 8;
}

bool BinaryReader::ReadRaw(void* data, size_t len) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
  if (!in_) return false;
  position_ += len;
  checksum_.Update(data, len);
  return true;
}

bool BinaryReader::ReadU32(uint32_t* v) {
  unsigned char buf[4];
  if (!ReadRaw(buf, sizeof(buf))) return false;
  *v = FromLittleEndian<uint32_t>(buf);
  return true;
}

bool BinaryReader::ReadU64(uint64_t* v) {
  unsigned char buf[8];
  if (!ReadRaw(buf, sizeof(buf))) return false;
  *v = FromLittleEndian<uint64_t>(buf);
  return true;
}

bool BinaryReader::ReadDouble(double* v) {
  uint64_t bits;
  if (!ReadU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

Status BinaryReader::VerifyChecksum() {
  const uint64_t computed = checksum_.digest();
  unsigned char buf[8];
  in_.read(reinterpret_cast<char*>(buf), sizeof(buf));
  if (!in_) return Status::IoError("file truncated before checksum");
  const uint64_t stored = FromLittleEndian<uint64_t>(buf);
  if (stored != computed) {
    return Status::IoError("checksum mismatch: file is corrupted");
  }
  return Status::OK();
}

}  // namespace skydiver
