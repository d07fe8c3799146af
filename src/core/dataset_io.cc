#include "core/dataset_io.h"

#include <limits>
#include <string>

#include "common/binio.h"

namespace skydiver {

namespace {
constexpr char kMagic[8] = {'S', 'K', 'Y', 'D', 'D', 'A', 'T', '1'};
}  // namespace

Status SaveDataSet(const DataSet& data, const std::string& path) {
  BinaryWriter writer(path, kMagic);
  if (!writer.ok()) return Status::IoError("cannot open '" + path + "' for writing");
  writer.WriteU32(data.dims());
  writer.WriteU64(data.size());
  for (Coord v : data.values()) writer.WriteDouble(v);
  return writer.Finish();
}

Result<DataSet> LoadDataSet(const std::string& path) {
  BinaryReader reader(path, kMagic);
  SKYDIVER_RETURN_NOT_OK(reader.status());
  uint32_t dims = 0;
  uint64_t n = 0;
  if (!reader.ReadU32(&dims) || !reader.ReadU64(&n)) {
    return Status::IoError("'" + path + "': truncated header");
  }
  if (dims == 0) return Status::InvalidArgument("'" + path + "': zero dimensionality");
  // Check the counts against the file before sizing anything from them
  // (dims * n may also wrap).
  if (n > reader.BytesLeft() / sizeof(Coord) / dims) {
    return Status::IoError("'" + path + "': header claims " + std::to_string(n) +
                           " rows of " + std::to_string(dims) +
                           " coordinates, more than the file holds");
  }
  if (n > std::numeric_limits<RowId>::max()) {
    return Status::InvalidArgument("'" + path + "': " + std::to_string(n) +
                                   " rows exceed the row-id range");
  }
  std::vector<Coord> values(static_cast<size_t>(dims) * n);
  for (auto& v : values) {
    if (!reader.ReadDouble(&v)) return Status::IoError("'" + path + "': truncated payload");
  }
  SKYDIVER_RETURN_NOT_OK(reader.VerifyChecksum());
  return DataSet(dims, std::move(values));
}

}  // namespace skydiver
