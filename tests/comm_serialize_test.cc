// Wire-format tests for the distributed runtime: frames (comm/frame.h)
// and task payloads (comm/serialize.h). The load-bearing property is
// bit-identical round-trips — a partition or core-set crossing the
// transport must decode to exactly the bytes that were encoded, which the
// fault-free "distributed == in-process" tests build on — plus diagnosable
// Status (never a crash, never silent garbage) on corrupt input.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/frame.h"
#include "comm/serialize.h"
#include "core/dataset.h"
#include "core/generalized_coreset.h"
#include "core/point.h"
#include "util/rng.h"
#include "util/status.h"

namespace diverse {
namespace {

// ---------------------------------------------------------------------------
// Frame protocol.

TEST(FrameTest, RoundTripsEveryType) {
  for (FrameType type :
       {FrameType::kRequest, FrameType::kReply, FrameType::kHeartbeat,
        FrameType::kHeartbeatAck, FrameType::kShutdown}) {
    std::string buf;
    AppendFrame(type, "hello frame", &buf);
    Frame frame;
    size_t consumed = 0;
    ASSERT_TRUE(TryDecodeFrame(buf, &frame, &consumed).ok());
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, "hello frame");
  }
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::string buf;
  AppendFrame(FrameType::kHeartbeat, "", &buf);
  EXPECT_EQ(buf.size(), kFrameHeaderBytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(buf, &frame, &consumed).ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, IncrementalDecodeNeedsMoreBytes) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "stream me byte by byte", &buf);
  // Every strict prefix is "need more" (OK + consumed == 0), never an error
  // and never a partial frame.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Frame frame;
    size_t consumed = 1;
    ASSERT_TRUE(TryDecodeFrame(buf.substr(0, cut), &frame, &consumed).ok())
        << "prefix length " << cut;
    EXPECT_EQ(consumed, 0u) << "prefix length " << cut;
  }
}

TEST(FrameTest, DecodesFirstOfTwoBackToBackFrames) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "first", &buf);
  const size_t first_size = buf.size();
  AppendFrame(FrameType::kReply, "second", &buf);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(buf, &frame, &consumed).ok());
  EXPECT_EQ(consumed, first_size);
  EXPECT_EQ(frame.payload, "first");
}

TEST(FrameTest, BadMagicIsInvalidArgument) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "x", &buf);
  buf[0] = 'Z';
  Frame frame;
  size_t consumed = 0;
  Status s = TryDecodeFrame(buf, &frame, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST(FrameTest, UnknownTypeIsInvalidArgument) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "x", &buf);
  buf[4] = '\x7f';  // type byte
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &consumed).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedLengthRejectedBeforeBuffering) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "x", &buf);
  // Rewrite the u64 length field to 2^62: decode must reject from the
  // header alone instead of waiting for (or allocating) 4 EiB.
  uint64_t huge = uint64_t{1} << 62;
  for (int b = 0; b < 8; ++b) buf[5 + b] = static_cast<char>(huge >> (8 * b));
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &consumed).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, ChecksumMismatchIsDataLoss) {
  std::string buf;
  AppendFrame(FrameType::kReply, "payload under guard", &buf);
  for (size_t i = kFrameHeaderBytes; i < buf.size(); ++i) {
    std::string corrupt = buf;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    Frame frame;
    size_t consumed = 0;
    Status s = TryDecodeFrame(corrupt, &frame, &consumed);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "flipped byte " << i;
    EXPECT_NE(s.message().find("checksum"), std::string::npos);
  }
}

TEST(FrameTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 reference value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

// ---------------------------------------------------------------------------
// Point-set payloads.

PointSet SamplePoints() {
  PointSet pts;
  pts.push_back(Point::Dense({1.0f, -2.5f, 3.25f}));
  pts.push_back(Point::Dense({0.0f, -0.0f, 1e-38f}));
  pts.push_back(Point::Sparse({1, 4, 7}, {0.5f, -1.5f, 2.0f}, 9));
  // A stored zero in CSR form must survive: dropping it would change nnz
  // and thus the bytes (and Jaccard semantics).
  pts.push_back(Point::Sparse({0, 3}, {0.0f, 4.0f}, 9));
  return pts;
}

std::string EncodeSet(const PointSet& pts) {
  std::string out;
  AppendPointSet(pts, &out);
  return out;
}

TEST(SerializeTest, PointSetRoundTripsBitIdentically) {
  const PointSet pts = SamplePoints();
  const std::string bytes = EncodeSet(pts);
  ByteReader in(bytes);
  StatusOr<PointSet> back = TryReadPointSet(&in, "test payload");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE((*back)[i] == pts[i]) << "point " << i;
  }
  // Bit-identity, not just semantic equality: re-encoding reproduces the
  // exact bytes (float payloads are moved raw, never reformatted).
  EXPECT_EQ(EncodeSet(*back), bytes);
}

TEST(SerializeTest, EmptyPointSetRoundTrips) {
  const std::string bytes = EncodeSet({});
  ByteReader in(bytes);
  StatusOr<PointSet> back = TryReadPointSet(&in, "empty payload");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SerializeTest, TruncatedPointSetIsDiagnosed) {
  // Any truncation point must yield a diagnosable error, never a crash or
  // a silently short set: kDataLoss when a record is cut mid-bytes,
  // kInvalidArgument when the cut lands where a length field now lies
  // about the remaining payload.
  const std::string bytes = EncodeSet(SamplePoints());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    ByteReader in(std::string_view(bytes).substr(0, cut));
    StatusOr<PointSet> back = TryReadPointSet(&in, "truncated payload");
    ASSERT_FALSE(back.ok()) << "cut at " << cut;
    EXPECT_TRUE(back.status().code() == StatusCode::kDataLoss ||
                back.status().code() == StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << back.status().ToString();
  }
}

TEST(SerializeTest, PointCountBeyondPayloadRejectedBeforeAllocating) {
  // A count field claiming 2^56 points must be rejected against the bytes
  // actually present, not trusted into an allocation.
  std::string bytes = EncodeSet(SamplePoints());
  bytes[7] = '\x01';  // count is the leading u64 (little-endian)
  ByteReader in(bytes);
  StatusOr<PointSet> back = TryReadPointSet(&in, "huge count");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Generalized core-set payloads.

GeneralizedCoreset SampleGen() {
  GeneralizedCoreset gen;
  gen.Add(Point::Dense({1.0f, 2.0f}), 3);
  gen.Add(Point::Sparse({2, 5}, {0.25f, -8.0f}, 6), 1);
  return gen;
}

TEST(SerializeTest, GenCoresetRoundTrips) {
  const GeneralizedCoreset gen = SampleGen();
  std::string bytes;
  AppendGenCoreset(gen, &bytes);
  ByteReader in(bytes);
  StatusOr<GeneralizedCoreset> back = TryReadGenCoreset(&in, "gen payload");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), gen.size());
  EXPECT_EQ(back->ExpandedSize(), gen.ExpandedSize());
  for (size_t e = 0; e < gen.size(); ++e) {
    EXPECT_TRUE(back->entries()[e].point == gen.entries()[e].point);
    EXPECT_EQ(back->entries()[e].multiplicity, gen.entries()[e].multiplicity);
  }
}

TEST(SerializeTest, GenCoresetZeroMultiplicityRejected) {
  // Forge an entry with multiplicity 0 (the in-memory type forbids it, so
  // build the bytes by hand): u64 count=1, u64 multiplicity=0, then any
  // valid point record.
  std::string bytes;
  GeneralizedCoreset one;
  one.Add(Point::Dense({1.0f}), 7);
  AppendGenCoreset(one, &bytes);
  for (int b = 0; b < 8; ++b) bytes[8 + b] = '\0';  // multiplicity -> 0
  ByteReader in(bytes);
  StatusOr<GeneralizedCoreset> back = TryReadGenCoreset(&in, "zero mult");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Request / reply codecs.

WireRequest SampleRequest() {
  WireRequest req;
  req.type = WireTaskType::kCoreset;
  req.metric = "euclidean";
  req.problem = DiversityProblem::kRemoteClique;
  req.round = "coreset-l2";
  req.task = 11;
  req.attempt = 2;
  req.delay_ms = 250;
  req.k = 8;
  req.k_prime = 16;
  req.delegates = 7;
  req.extended = true;
  req.range = 0.125;
  req.points = SamplePoints();
  req.points2.push_back(Point::Dense({9.0f}));
  req.gen = SampleGen();
  return req;
}

TEST(SerializeTest, RequestRoundTripsEveryField) {
  const WireRequest req = SampleRequest();
  const std::string payload = EncodeWireRequest(req);
  StatusOr<WireRequest> back = TryDecodeWireRequest(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->type, req.type);
  EXPECT_EQ(back->metric, req.metric);
  EXPECT_EQ(back->problem, req.problem);
  EXPECT_EQ(back->round, req.round);
  EXPECT_EQ(back->task, req.task);
  EXPECT_EQ(back->attempt, req.attempt);
  EXPECT_EQ(back->delay_ms, req.delay_ms);
  EXPECT_EQ(back->k, req.k);
  EXPECT_EQ(back->k_prime, req.k_prime);
  EXPECT_EQ(back->delegates, req.delegates);
  EXPECT_EQ(back->extended, req.extended);
  EXPECT_EQ(back->range, req.range);
  ASSERT_EQ(back->points.size(), req.points.size());
  for (size_t i = 0; i < req.points.size(); ++i) {
    EXPECT_TRUE(back->points[i] == req.points[i]);
  }
  ASSERT_EQ(back->points2.size(), req.points2.size());
  EXPECT_TRUE(back->points2[0] == req.points2[0]);
  EXPECT_EQ(back->gen.size(), req.gen.size());
  // Encode-of-decode is byte-stable.
  EXPECT_EQ(EncodeWireRequest(*back), payload);
}

TEST(SerializeTest, RequestRejectsUnknownTaskType) {
  std::string payload = EncodeWireRequest(SampleRequest());
  payload[0] = '\x2a';  // task type is the first byte
  StatusOr<WireRequest> back = TryDecodeWireRequest(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RequestRejectsTrailingBytes) {
  std::string payload = EncodeWireRequest(SampleRequest());
  payload.push_back('\0');
  StatusOr<WireRequest> back = TryDecodeWireRequest(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RequestTruncationsAllDiagnosed) {
  const std::string payload = EncodeWireRequest(SampleRequest());
  // Every strict prefix must fail with a Status (kDataLoss or
  // kInvalidArgument), never crash or decode successfully.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    StatusOr<WireRequest> back =
        TryDecodeWireRequest(std::string_view(payload).substr(0, cut));
    ASSERT_FALSE(back.ok()) << "prefix " << cut << " decoded";
    const StatusCode code = back.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "prefix " << cut << ": " << back.status().ToString();
  }
}

TEST(SerializeTest, ReplyRoundTripsOkAndError) {
  WireReply ok_reply;
  ok_reply.type = WireTaskType::kGenCoreset;
  ok_reply.gen = SampleGen();
  ok_reply.range = 2.5;
  StatusOr<WireReply> ok_back = TryDecodeWireReply(EncodeWireReply(ok_reply));
  ASSERT_TRUE(ok_back.ok());
  EXPECT_TRUE(ok_back->status.ok());
  EXPECT_EQ(ok_back->type, WireTaskType::kGenCoreset);
  EXPECT_EQ(ok_back->gen.size(), ok_reply.gen.size());
  EXPECT_EQ(ok_back->range, 2.5);

  WireReply err_reply;
  err_reply.type = WireTaskType::kSolve;
  err_reply.status = AbortedError("synthetic worker failure");
  StatusOr<WireReply> err_back =
      TryDecodeWireReply(EncodeWireReply(err_reply));
  ASSERT_TRUE(err_back.ok());
  EXPECT_EQ(err_back->status.code(), StatusCode::kAborted);
  EXPECT_EQ(err_back->status.message(), "synthetic worker failure");
}

TEST(SerializeTest, ReplyRejectsOutOfRangeStatusCode) {
  WireReply reply;
  reply.type = WireTaskType::kSolve;
  std::string payload = EncodeWireReply(reply);
  payload[1] = '\x63';  // status code byte beyond kInternal
  StatusOr<WireReply> back = TryDecodeWireReply(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}


// ---------------------------------------------------------------------------
// Row-view requests: a partition encoded straight from a Dataset's columnar
// rows must be the very bytes of the gathered partition's encoding, so
// workers, fingerprints and the partition cache cannot tell them apart.

PointSet GatherRows(const Dataset& data, const std::vector<uint32_t>& rows) {
  PointSet out;
  for (uint32_t r : rows) out.push_back(data.point(r));
  return out;
}

PointSet RandomRows(size_t n, uint32_t dim, bool dense, bool sparse,
                    uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    const bool make_sparse = sparse && (!dense || rng.NextBounded(2) == 0);
    if (make_sparse) {
      std::vector<uint32_t> idx;
      std::vector<float> val;
      // Some rows store no coordinates at all (empty arrays).
      for (uint32_t c = 0; c < dim; ++c) {
        if (rng.NextBounded(3) == 0) {
          idx.push_back(c);
          val.push_back(static_cast<float>(rng.NextDouble()) - 0.5f);
        }
      }
      pts.push_back(Point::Sparse(std::move(idx), std::move(val), dim));
    } else {
      std::vector<float> v(dim);
      for (float& x : v) x = static_cast<float>(rng.NextDouble() * 4 - 2);
      pts.push_back(Point::Dense(std::move(v)));
    }
  }
  return pts;
}

TEST(RowViewEncodeTest, RequestIsByteIdenticalToGatheredEncode) {
  struct Layout {
    const char* name;
    PointSet points;
  };
  const Layout layouts[] = {
      {"dense", RandomRows(40, 6, /*dense=*/true, /*sparse=*/false, 1)},
      {"sparse", RandomRows(40, 12, /*dense=*/false, /*sparse=*/true, 2)},
      {"mixed", RandomRows(40, 9, /*dense=*/true, /*sparse=*/true, 3)},
  };
  const std::vector<std::vector<uint32_t>> row_sets = {
      {},                            // empty partition
      {5},                           // one row
      {0, 3, 7, 11, 19, 39},         // ascending block
      {39, 2, 2, 17, 2, 0, 17, 33},  // repeated, out-of-order rows
  };
  for (const Layout& layout : layouts) {
    const Dataset data(layout.points);
    for (const std::vector<uint32_t>& rows : row_sets) {
      const PointSet gathered = GatherRows(data, rows);
      const WirePoints by_rows(data, rows);
      EXPECT_EQ(by_rows.size(), rows.size());
      EXPECT_EQ(by_rows.Fingerprint(), FingerprintPoints(gathered))
          << layout.name;
      EXPECT_EQ(by_rows.Fingerprint(), FingerprintRows(data, rows))
          << layout.name;
      for (WireTaskType type :
           {WireTaskType::kCoreset, WireTaskType::kGenCoreset}) {
        for (int flags = 0; flags < 3; ++flags) {
          WireRequest req;
          req.type = type;
          req.metric = "cosine";
          req.round = type == WireTaskType::kCoreset ? "coreset" : "gen";
          req.task = rows.size();
          req.k = 4;
          req.k_prime = 9;
          req.delegates = 2;
          req.extended = type == WireTaskType::kCoreset;
          req.points_fingerprint = FingerprintPoints(gathered);
          req.cache_insert = flags == 1;
          req.points_by_ref = flags == 2;
          const std::string want = EncodeWireRequest(req, &gathered);
          const std::string got = EncodeWireRequest(req, by_rows);
          ASSERT_EQ(got.size(), want.size())
              << layout.name << " rows=" << rows.size() << " flags=" << flags;
          EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
              << layout.name << " rows=" << rows.size() << " flags=" << flags;
          // And through the PointSet form of the section.
          EXPECT_EQ(EncodeWireRequest(req, WirePoints(gathered)), want);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CRC-32: the slice-by-8 table walk must agree with the bytewise definition
// at every length and alignment.

uint32_t BytewiseCrc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(FrameTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  Rng rng(77);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextBounded(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view bytes(buf.data() + offset, len);
      ASSERT_EQ(Crc32(bytes), BytewiseCrc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Record names are formatted only on failure, with unchanged text.

TEST(SerializeTest, CorruptMidPartitionRecordNamesItsIndex) {
  WireRequest req;
  req.type = WireTaskType::kCoreset;
  req.metric = "euclidean";
  req.round = "coreset";
  req.points = RandomRows(50, 5, /*dense=*/true, /*sparse=*/false, 9);
  const std::string payload = EncodeWireRequest(req);
  // Record 23 starts where the encoding of the first 23 points would end,
  // less its (empty) points2 and generalized-core-set counts.
  WireRequest prefix = req;
  prefix.points.resize(23);
  const size_t at = EncodeWireRequest(prefix).size() - 2 * sizeof(uint64_t);
  std::string corrupt = payload;
  corrupt[at] = '\x07';  // the record's tag byte
  const std::string want = "unknown record tag 7 at point 23 of request points";

  StatusOr<WireRequest> mono = TryDecodeWireRequest(corrupt);
  ASSERT_FALSE(mono.ok());
  EXPECT_EQ(mono.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mono.status().message(), want);

  // Fed in slices, the streaming decoder reports the same record.
  StreamingRequestDecoder streaming;
  Status fed = OkStatus();
  for (size_t off = 0; off < corrupt.size() && fed.ok(); off += 37) {
    fed = streaming.Feed(std::string_view(corrupt).substr(off, 37));
  }
  StatusOr<WireRequest> chunked =
      fed.ok() ? streaming.Finish() : StatusOr<WireRequest>(fed);
  ASSERT_FALSE(chunked.ok());
  EXPECT_EQ(chunked.status().message(), want);

  // The standalone point-set and generalized-core-set readers too.
  std::string set_bytes;
  AppendPointSet(req.points, &set_bytes);
  set_bytes[sizeof(uint64_t) + 4 * (9 + 5 * sizeof(float))] = '\x07';
  ByteReader set_in(set_bytes);
  EXPECT_EQ(TryReadPointSet(&set_in, "reply points").status().message(),
            "unknown record tag 7 at point 4 of reply points");

  GeneralizedCoreset gen;
  for (const Point& p : RandomRows(3, 2, true, false, 10)) gen.Add(p, 2);
  std::string gen_bytes;
  AppendGenCoreset(gen, &gen_bytes);
  const size_t entry_bytes = sizeof(uint64_t) + 9 + 2 * sizeof(float);
  std::memset(&gen_bytes[sizeof(uint64_t) + entry_bytes], 0, sizeof(uint64_t));
  ByteReader gen_in(gen_bytes);
  EXPECT_EQ(TryReadGenCoreset(&gen_in, "reply generalized core-set")
                .status()
                .message(),
            "zero multiplicity at entry 1 of reply generalized core-set");
}

}  // namespace
}  // namespace diverse
