// Dataset persistence: a text format for interchange and a compact binary
// format for large generated datasets, so experiments can be re-run on
// identical inputs (and real datasets like musiXmatch can be imported when
// available).
//
// Text format, one point per line:
//   dense:  "d v0 v1 ... v_{dim-1}"
//   sparse: "s <dim> i0:v0 i1:v1 ..."
// Lines starting with '#' are comments.
//
// Binary format: a small header (magic, count) followed by records; see
// io.cc for the exact layout. Both formats round-trip dense and sparse
// points exactly.
//
// The Try* loaders validate everything a hostile or half-written file could
// get wrong (missing file, bad magic, truncated header or record, unknown
// record tag, nnz > dim, unsorted or out-of-range sparse indices, a record
// count larger than the file could possibly hold, malformed text lines) and
// return a Status naming the offending record or line. The Dataset loaders
// also reject records of mixed dimension.

#ifndef DIVERSE_DATA_IO_H_
#define DIVERSE_DATA_IO_H_

#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "core/dataset.h"
#include "core/point.h"
#include "util/status.h"

namespace diverse {

/// A bounds-checked sequential reader over an in-memory byte image. Every
/// Read checks the remaining length first, so composite decoders (the binary
/// point loader below, the transport payloads in comm/serialize.h) can never
/// run past a truncated buffer. A failed Read leaves the cursor where it
/// was, matching a failed ifstream::read.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : p_(bytes.data()), remaining_(bytes.size()) {}

  /// Copies `n` bytes into `out`; false when fewer than `n` remain. A
  /// zero-byte read always succeeds without touching either pointer (an
  /// empty view's data() may be null, and memcpy from null is undefined
  /// even for n == 0).
  bool Read(void* out, size_t n) {
    if (n == 0) return true;
    if (n > remaining_) return false;
    std::memcpy(out, p_, n);
    p_ += n;
    remaining_ -= n;
    return true;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return remaining_; }

 private:
  const char* p_;
  size_t remaining_;
};

/// Appends the binary-format record of one point (the per-point layout of
/// SavePointsBinary: tag, dim, nnz, then the coordinate payload) to `*out`.
/// Raw little-endian float bytes round-trip exactly, which is what makes
/// serialized partitions and core-sets bit-identical after transport.
void AppendPointRecord(const Point& point, std::string* out);

/// Reads one binary point record from `*in` with the same validation and
/// error taxonomy as TryLoadPointsBinary (truncation -> kDataLoss; nnz >
/// dim, unsorted or out-of-range sparse indices, unknown tag ->
/// kInvalidArgument). `where` names the record in error messages.
DIVERSE_MUST_USE StatusOr<Point> TryReadPointRecord(ByteReader* in,
                                                    const std::string& where);

/// Serializes `points` to the binary format in memory — the exact bytes
/// SavePointsBinary would write to a file. Decoded by TryParsePointsBinary.
std::string EncodePointsBinary(const PointSet& points);

/// Parses text-format bytes (the whole file contents). `origin` names the
/// source in error messages (a path, or "<fuzz>"/"<memory>"). The path
/// loaders below are thin read-the-file wrappers over these parse cores,
/// which are also the libFuzzer entry points (tests/fuzz/io_fuzz.cc):
/// every validation path is reachable from plain bytes, no filesystem
/// required.
DIVERSE_MUST_USE StatusOr<PointSet> TryParsePointsText(
    std::string_view text, const std::string& origin);

/// Parses binary-format bytes. Same validation and error taxonomy as
/// TryLoadPointsBinary (bad magic, truncation, impossible counts, unsorted
/// indices — all named with `origin`).
DIVERSE_MUST_USE StatusOr<PointSet> TryParsePointsBinary(
    std::string_view bytes, const std::string& origin);

/// Writes `points` in the text format. Returns false on I/O failure.
bool SavePointsText(const PointSet& points, const std::string& path);

/// Reads a text-format file. kNotFound when the file cannot be opened,
/// kInvalidArgument (naming the 1-based line) on a malformed line.
DIVERSE_MUST_USE StatusOr<PointSet> TryLoadPointsText(const std::string& path);

/// Writes `points` in the binary format. Returns false on I/O failure.
bool SavePointsBinary(const PointSet& points, const std::string& path);

/// Reads a binary-format file. kNotFound when the file cannot be opened,
/// kInvalidArgument on structural nonsense (bad magic, unknown record tag,
/// nnz > dim, unsorted/out-of-range sparse indices, impossible record
/// count), kDataLoss on truncation (short header or record, naming the
/// record index).
DIVERSE_MUST_USE StatusOr<PointSet> TryLoadPointsBinary(const std::string& path);

/// Reads a text-format file directly into columnar Dataset storage, ready
/// for the batched kernels. Same errors as TryLoadPointsText, plus
/// kInvalidArgument (naming the first offending record) when the records do
/// not share one dimension — a Dataset holds a single ambient dimension,
/// while the PointSet loaders accept mixed dimensions.
DIVERSE_MUST_USE StatusOr<Dataset> TryLoadDatasetText(const std::string& path);

/// Reads a binary-format file directly into columnar Dataset storage.
/// Same errors as TryLoadPointsBinary, plus the dimension check of
/// TryLoadDatasetText.
DIVERSE_MUST_USE StatusOr<Dataset> TryLoadDatasetBinary(const std::string& path);

/// Serializes one point to its text-format line (no trailing newline).
std::string PointToTextLine(const Point& point);

/// Parses one text-format line. Returns nullopt on malformed input.
std::optional<Point> PointFromTextLine(const std::string& line);

}  // namespace diverse

#endif  // DIVERSE_DATA_IO_H_
