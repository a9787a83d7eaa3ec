#include "data/io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace diverse {

namespace {

constexpr uint32_t kBinaryMagic = 0x44495650;  // "DIVP"
constexpr uint8_t kDenseTag = 0;
constexpr uint8_t kSparseTag = 1;
// tag (1) + dim (4) + nnz (4): the smallest possible record. Used to reject
// header counts no file of this size could hold before reserving memory.
constexpr uint64_t kMinRecordBytes = 9;

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

}  // namespace

std::string PointToTextLine(const Point& point) {
  // %.9g prints enough significant digits for exact float round-trips.
  char buf[48];
  std::string out;
  if (point.is_sparse()) {
    out = "s " + std::to_string(point.dim());
    const auto& idx = point.sparse_indices();
    const auto& val = point.sparse_values();
    for (size_t i = 0; i < idx.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %u:%.9g", idx[i],
                    static_cast<double>(val[i]));
      out += buf;
    }
  } else {
    out = "d";
    for (float v : point.dense_values()) {
      std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(v));
      out += buf;
    }
  }
  return out;
}

std::optional<Point> PointFromTextLine(const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  if (!(in >> tag)) return std::nullopt;
  if (tag == "d") {
    std::vector<float> values;
    float v;
    while (in >> v) values.push_back(v);
    if (!in.eof()) return std::nullopt;
    return Point::Dense(std::move(values));
  }
  if (tag == "s") {
    uint32_t dim;
    if (!(in >> dim)) return std::nullopt;
    std::vector<uint32_t> indices;
    std::vector<float> values;
    std::string pair;
    while (in >> pair) {
      size_t colon = pair.find(':');
      if (colon == std::string::npos) return std::nullopt;
      char* end = nullptr;
      unsigned long idx = std::strtoul(pair.c_str(), &end, 10);
      if (end != pair.c_str() + colon) return std::nullopt;
      float val = std::strtof(pair.c_str() + colon + 1, &end);
      if (end != pair.c_str() + pair.size()) return std::nullopt;
      if (!indices.empty() && idx <= indices.back()) return std::nullopt;
      if (idx >= dim) return std::nullopt;
      indices.push_back(static_cast<uint32_t>(idx));
      values.push_back(val);
    }
    return Point::Sparse(std::move(indices), std::move(values), dim);
  }
  return std::nullopt;
}

bool SavePointsText(const PointSet& points, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# diverse point set, " << points.size() << " points\n";
  for (const Point& p : points) out << PointToTextLine(p) << "\n";
  return static_cast<bool>(out);
}

namespace {

// Reads a whole file into memory for the parse cores. kNotFound when the
// file cannot be opened, kDataLoss on a mid-read I/O error.
StatusOr<std::string> ReadFileBytes(const std::string& path, bool binary) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) return NotFoundError("cannot open " + Quoted(path));
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return DataLossError("read error in " + Quoted(path));
  return std::move(buf).str();
}

}  // namespace

StatusOr<PointSet> TryParsePointsText(std::string_view text,
                                      const std::string& origin) {
  PointSet points;
  size_t line_no = 0;
  size_t pos = 0;
  std::string line;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    line.assign(text, pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::optional<Point> p = PointFromTextLine(line);
    if (!p.has_value()) {
      return InvalidArgumentError("malformed point on line " +
                                  std::to_string(line_no) + " of " +
                                  Quoted(origin) + ": " + Quoted(line));
    }
    points.push_back(std::move(*p));
  }
  return points;
}

StatusOr<PointSet> TryLoadPointsText(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path, /*binary=*/false);
  if (!bytes.ok()) return bytes.status();
  return TryParsePointsText(*bytes, path);
}

void AppendRowRecord(const kernels::VecView& row, std::string* out) {
  const uint8_t tag = row.is_sparse() ? kSparseTag : kDenseTag;
  const uint32_t dim = static_cast<uint32_t>(row.dim);
  const uint32_t nnz = static_cast<uint32_t>(row.nnz);
  char header[sizeof(tag) + sizeof(dim) + sizeof(nnz)];
  std::memcpy(header, &tag, sizeof(tag));
  std::memcpy(header + sizeof(tag), &dim, sizeof(dim));
  std::memcpy(header + sizeof(tag) + sizeof(dim), &nnz, sizeof(nnz));
  out->append(header, sizeof(header));
  // An empty row's arrays may be null; append nothing rather than read them.
  if (nnz == 0) return;
  if (row.is_sparse()) {
    out->append(reinterpret_cast<const char*>(row.indices),
                nnz * sizeof(uint32_t));
  }
  out->append(reinterpret_cast<const char*>(row.values), nnz * sizeof(float));
}

void AppendPointRecord(const Point& point, std::string* out) {
  AppendRowRecord(point.View(), out);
}

std::string RecordName::ToString() const {
  return std::string(kind) + " " + std::to_string(index) + " of " +
         std::string(of);
}

std::string EncodePointsBinary(const PointSet& points) {
  std::string out;
  const uint32_t magic = kBinaryMagic;
  const uint64_t count = points.size();
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Point& p : points) AppendPointRecord(p, &out);
  return out;
}

bool SavePointsBinary(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string bytes = EncodePointsBinary(points);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

StatusOr<Point> TryReadPointRecord(ByteReader* in, const RecordName& where) {
  // Error suffix naming the record; built only on a failure path.
  const auto at = [&where] { return " at " + where.ToString(); };
  uint8_t tag;
  uint32_t dim, nnz;
  if (!in->Read(&tag, sizeof(tag)) || !in->Read(&dim, sizeof(dim)) ||
      !in->Read(&nnz, sizeof(nnz))) {
    return DataLossError("truncated record header" + at());
  }
  // A record's payload cannot exceed the bytes that remain: reject corrupt
  // nnz fields before they turn into huge allocations.
  const uint64_t entry_bytes =
      tag == kSparseTag ? sizeof(uint32_t) + sizeof(float) : sizeof(float);
  if (static_cast<uint64_t>(nnz) * entry_bytes > in->remaining()) {
    return DataLossError("record payload (" + std::to_string(nnz) +
                         " entries) exceeds file size" + at());
  }
  if (tag == kDenseTag) {
    if (nnz != dim) {
      return InvalidArgumentError("dense record with nnz " +
                                  std::to_string(nnz) + " != dim " +
                                  std::to_string(dim) + at());
    }
    std::vector<float> values(nnz);
    if (!in->Read(values.data(), nnz * sizeof(float))) {
      return DataLossError("truncated dense payload" + at());
    }
    return Point::Dense(std::move(values));
  }
  if (tag == kSparseTag) {
    if (nnz > dim) {
      return InvalidArgumentError("sparse record with nnz " +
                                  std::to_string(nnz) + " > dim " +
                                  std::to_string(dim) + at());
    }
    std::vector<uint32_t> indices(nnz);
    std::vector<float> values(nnz);
    if (!in->Read(indices.data(), nnz * sizeof(uint32_t)) ||
        !in->Read(values.data(), nnz * sizeof(float))) {
      return DataLossError("truncated sparse payload" + at());
    }
    for (size_t j = 0; j + 1 < indices.size(); ++j) {
      if (indices[j] >= indices[j + 1]) {
        return InvalidArgumentError("unsorted sparse indices" + at());
      }
    }
    if (!indices.empty() && indices.back() >= dim) {
      return InvalidArgumentError("sparse index " +
                                  std::to_string(indices.back()) +
                                  " out of range for dim " +
                                  std::to_string(dim) + at());
    }
    return Point::Sparse(std::move(indices), std::move(values), dim);
  }
  return InvalidArgumentError("unknown record tag " +
                              std::to_string(static_cast<int>(tag)) + at());
}

StatusOr<PointSet> TryParsePointsBinary(std::string_view bytes,
                                        const std::string& origin) {
  const uint64_t file_size = bytes.size();
  ByteReader in(bytes);
  uint32_t magic = 0;
  uint64_t count = 0;
  if (!in.Read(&magic, sizeof(magic)) || !in.Read(&count, sizeof(count))) {
    return DataLossError("truncated header (" + std::to_string(file_size) +
                         " bytes, want at least 12) in " + Quoted(origin));
  }
  if (magic != kBinaryMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08X", magic);
    return InvalidArgumentError("bad magic " + std::string(hex) + " in " +
                                Quoted(origin) + " (want DIVP)");
  }
  // Reject record counts the file cannot possibly hold before reserving:
  // a corrupted count field must not translate into a huge allocation.
  const uint64_t payload = file_size - sizeof(magic) - sizeof(count);
  if (count > payload / kMinRecordBytes) {
    return InvalidArgumentError(
        "header claims " + std::to_string(count) + " records but " +
        Quoted(origin) + " has only " + std::to_string(payload) +
        " payload bytes");
  }
  const std::string quoted_origin = Quoted(origin);
  PointSet points;
  points.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<Point> p =
        TryReadPointRecord(&in, RecordName{"record", i, quoted_origin});
    if (!p.ok()) return p.status();
    points.push_back(std::move(*p));
  }
  return points;
}

StatusOr<PointSet> TryLoadPointsBinary(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path, /*binary=*/true);
  if (!bytes.ok()) return bytes.status();
  return TryParsePointsBinary(*bytes, path);
}

namespace {

// A Dataset holds one ambient dimension; reject mixed-dimension input with a
// Status (Dataset::TryFromPoints) before the columnar build would CHECK on
// it.
StatusOr<Dataset> DatasetFromLoaded(StatusOr<PointSet> points,
                                    const std::string& path) {
  if (!points.ok()) return points.status();
  StatusOr<Dataset> data = Dataset::TryFromPoints(std::move(*points));
  if (!data.ok()) {
    return Status(data.status().code(),
                  data.status().message() + " in " + Quoted(path));
  }
  return data;
}

}  // namespace

StatusOr<Dataset> TryLoadDatasetText(const std::string& path) {
  return DatasetFromLoaded(TryLoadPointsText(path), path);
}

StatusOr<Dataset> TryLoadDatasetBinary(const std::string& path) {
  return DatasetFromLoaded(TryLoadPointsBinary(path), path);
}

}  // namespace diverse
