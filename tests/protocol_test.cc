#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace adaptidx {
namespace server {
namespace {

// Deterministic xorshift so the fuzz corpus is identical on every run.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}
  uint64_t Next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  uint8_t NextByte() { return static_cast<uint8_t>(Next() & 0xff); }

 private:
  uint64_t s_;
};

Frame MustDecode(const std::string& bytes) {
  Frame f;
  size_t consumed = 0;
  Status s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                            bytes.size(), kDefaultMaxFrameBytes, &f,
                            &consumed);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(consumed, bytes.size());
  return f;
}

// ----------------------------------------------------------- frame framing

TEST(ProtocolFrameTest, RoundTripsTypeIdAndPayload) {
  const std::string payload = "hello payload";
  const std::string bytes =
      EncodeFrame(FrameType::kQuery, 0xdeadbeefcafe1234ULL, payload);
  Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kQuery);
  EXPECT_EQ(f.request_id, 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(f.payload, payload);
}

TEST(ProtocolFrameTest, EveryPrefixAsksForMoreBytes) {
  const std::string bytes = EncodeFrame(FrameType::kStats, 7, "abc");
  // Feeding any strict prefix must yield OK + consumed == 0 (need more),
  // never an error and never a phantom frame.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame f;
    size_t consumed = 99;
    Status s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                              cut, kDefaultMaxFrameBytes, &f, &consumed);
    EXPECT_TRUE(s.ok()) << "cut=" << cut;
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
}

TEST(ProtocolFrameTest, LengthBelowOverheadIsCorruption) {
  // length = 3 < kFrameOverhead: cannot even hold type + request id.
  std::string bytes;
  bytes.push_back(3);
  bytes.append(3, '\0');
  bytes.append(16, 'x');  // plenty of trailing bytes: still rejected
  Frame f;
  size_t consumed = 0;
  Status s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                            bytes.size(), kDefaultMaxFrameBytes, &f,
                            &consumed);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(ProtocolFrameTest, LengthAboveCapRejectedBeforeBufferingPayload) {
  // A hostile length word claiming ~4 GiB with only 4 bytes on the wire:
  // the cap check must fire immediately (OK-need-more would let the peer
  // hold a connection hostage; reserving would hand it an allocation).
  std::string bytes;
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(0xff));
  Frame f;
  size_t consumed = 0;
  Status s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                            bytes.size(), kDefaultMaxFrameBytes, &f,
                            &consumed);
  EXPECT_TRUE(s.IsCorruption());
  // Same length under a tiny custom cap.
  const std::string ok = EncodeFrame(FrameType::kStats, 1, std::string(64, 'p'));
  s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(ok.data()), ok.size(),
                     /*max_frame_bytes=*/32, &f, &consumed);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(ProtocolFrameTest, UnknownTypeTagIsCorruption) {
  std::string bytes = EncodeFrame(FrameType::kQuery, 1, "");
  bytes[kFrameLengthBytes] = 0x42;  // no such request tag
  Frame f;
  size_t consumed = 0;
  Status s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                            bytes.size(), kDefaultMaxFrameBytes, &f,
                            &consumed);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(ProtocolFrameTest, PipelinedFramesDecodeOneAtATime) {
  const std::string a = EncodeFrame(FrameType::kQuery, 1, "aa");
  const std::string b = EncodeFrame(FrameType::kInsert, 2, "bbbb");
  std::string stream = a + b;
  Frame f;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(reinterpret_cast<const uint8_t*>(stream.data()),
                             stream.size(), kDefaultMaxFrameBytes, &f,
                             &consumed)
                  .ok());
  EXPECT_EQ(consumed, a.size());
  EXPECT_EQ(f.request_id, 1u);
  stream.erase(0, consumed);
  ASSERT_TRUE(TryDecodeFrame(reinterpret_cast<const uint8_t*>(stream.data()),
                             stream.size(), kDefaultMaxFrameBytes, &f,
                             &consumed)
                  .ok());
  EXPECT_EQ(consumed, b.size());
  EXPECT_EQ(f.request_id, 2u);
  EXPECT_EQ(f.type, FrameType::kInsert);
}

// -------------------------------------------------------- payload round-trips

TEST(ProtocolPayloadTest, OpenSessionRoundTrip) {
  OpenSessionReq req;
  req.flags = 0x01;
  req.client_id = 77;
  OpenSessionReq back;
  ASSERT_TRUE(back.Decode(req.Encode()).ok());
  EXPECT_EQ(back.flags, req.flags);
  EXPECT_EQ(back.client_id, 77u);

  OpenOkMsg ok;
  ok.session_id = 123456;
  OpenOkMsg ok_back;
  ASSERT_TRUE(ok_back.Decode(ok.Encode()).ok());
  EXPECT_EQ(ok_back.session_id, 123456u);
}

TEST(ProtocolPayloadTest, QueryRoundTripAllServableKinds) {
  for (QueryKind kind : {QueryKind::kCount, QueryKind::kSum, QueryKind::kRowIds,
                         QueryKind::kMinMax}) {
    QueryReq req{kind, -500, 12345};
    QueryReq back;
    ASSERT_TRUE(back.Decode(req.Encode()).ok());
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.lo, -500);
    EXPECT_EQ(back.hi, 12345);
    Query q = back.ToQuery();
    EXPECT_EQ(q.kind, kind);
    EXPECT_EQ(q.range.lo, -500);
    EXPECT_EQ(q.range.hi, 12345);
  }
}

TEST(ProtocolPayloadTest, SumOtherKindRejectedOnTheWire) {
  QueryReq req{QueryKind::kSumOther, 0, 10};
  QueryReq back;
  EXPECT_TRUE(back.Decode(req.Encode()).IsInvalidArgument());
}

TEST(ProtocolPayloadTest, BatchRoundTripAndForgedCount) {
  BatchReq req;
  req.queries.push_back({QueryKind::kCount, 1, 2});
  req.queries.push_back({QueryKind::kSum, -10, 10});
  const std::string bytes = req.Encode();
  BatchReq back;
  ASSERT_TRUE(back.Decode(bytes).ok());
  ASSERT_EQ(back.queries.size(), 2u);
  EXPECT_EQ(back.queries[1].kind, QueryKind::kSum);
  EXPECT_EQ(back.queries[1].lo, -10);
  // Forge the element count to a value the payload cannot hold: rejected
  // (before any reserve) instead of over-reading.
  std::string forged = bytes;
  forged[0] = static_cast<char>(0xff);
  forged[1] = static_cast<char>(0xff);
  EXPECT_TRUE(back.Decode(forged).IsInvalidArgument());
}

TEST(ProtocolPayloadTest, UpdateRoundTrips) {
  InsertReq ins;
  ins.value = -987654321;
  InsertReq ins_back;
  ASSERT_TRUE(ins_back.Decode(ins.Encode()).ok());
  EXPECT_EQ(ins_back.value, -987654321);

  DeleteReq del;
  del.value = 42;
  del.row_id = 4242;
  DeleteReq del_back;
  ASSERT_TRUE(del_back.Decode(del.Encode()).ok());
  EXPECT_EQ(del_back.value, 42);
  EXPECT_EQ(del_back.row_id, 4242u);
}

TEST(ProtocolPayloadTest, ResultRoundTripWithRowIds) {
  ResultMsg m;
  m.status_code = StatusCodeToWire(Status::OK());
  m.kind = static_cast<uint8_t>(QueryKind::kRowIds);
  m.count = 3;
  m.row_ids = {10, 20, 30};
  ResultMsg back;
  ASSERT_TRUE(back.Decode(m.Encode()).ok());
  EXPECT_TRUE(back.ToStatus().ok());
  EXPECT_EQ(back.count, 3u);
  EXPECT_EQ(back.row_ids, (std::vector<uint32_t>{10, 20, 30}));
}

TEST(ProtocolPayloadTest, ResultForgedRowIdCountFailsBeforeReserve) {
  ResultMsg m;  // zero row ids: the trailing u32 of the encoding is the count
  std::string bytes = m.Encode();
  for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(0xff);
  }
  ResultMsg back;
  EXPECT_TRUE(back.Decode(bytes).IsInvalidArgument());
}

TEST(ProtocolPayloadTest, ResultStatusBridgeRoundTripsEveryCode) {
  for (Status s : {Status::OK(), Status::NotFound("a"),
                   Status::InvalidArgument("b"), Status::Busy("c"),
                   Status::Conflict("d"), Status::Aborted("e"),
                   Status::TimedOut("f"), Status::NotSupported("g"),
                   Status::Corruption("h")}) {
    ResultMsg m = ResultMsg::FromStatus(s);
    ResultMsg back;
    ASSERT_TRUE(back.Decode(m.Encode()).ok());
    Status lifted = back.ToStatus();
    EXPECT_EQ(lifted.code(), s.code());
    EXPECT_EQ(lifted.message(), s.message());
  }
}

TEST(ProtocolPayloadTest, BatchResultRoundTrip) {
  BatchResultMsg batch;
  batch.results.push_back(ResultMsg::FromStatus(Status::TimedOut("late")));
  ResultMsg ok;
  ok.kind = static_cast<uint8_t>(QueryKind::kSum);
  ok.sum = -5;
  batch.results.push_back(ok);
  BatchResultMsg back;
  ASSERT_TRUE(back.Decode(batch.Encode()).ok());
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_TRUE(back.results[0].ToStatus().IsTimedOut());
  EXPECT_EQ(back.results[1].sum, -5);
}

TEST(ProtocolPayloadTest, StatsRoundTripAndFind) {
  StatsMsg stats;
  stats.entries.emplace_back("admission.shed_total", 9);
  stats.entries.emplace_back("index.num_rows", 100000);
  StatsMsg back;
  ASSERT_TRUE(back.Decode(stats.Encode()).ok());
  uint64_t v = 0;
  ASSERT_TRUE(back.Find("index.num_rows", &v));
  EXPECT_EQ(v, 100000u);
  EXPECT_FALSE(back.Find("no.such.key", &v));
}

TEST(ProtocolPayloadTest, BusyRoundTrip) {
  BusyMsg busy;
  busy.overload_state = 2;
  busy.shed_total = 31337;
  BusyMsg back;
  ASSERT_TRUE(back.Decode(busy.Encode()).ok());
  EXPECT_EQ(back.overload_state, 2);
  EXPECT_EQ(back.shed_total, 31337u);
}

TEST(ProtocolPayloadTest, TrailingGarbageRejectedEverywhere) {
  // Strict decode: every payload decoder requires exhaustion, so one extra
  // byte after a perfectly valid encoding is malformed.
  EXPECT_TRUE(OpenSessionReq().Decode(OpenSessionReq().Encode() + "x")
                  .IsInvalidArgument());
  QueryReq q{QueryKind::kCount, 0, 1};
  QueryReq qb;
  EXPECT_TRUE(qb.Decode(q.Encode() + "x").IsInvalidArgument());
  InsertReq ib;
  EXPECT_TRUE(ib.Decode(InsertReq().Encode() + "x").IsInvalidArgument());
  ResultMsg rb;
  EXPECT_TRUE(rb.Decode(ResultMsg().Encode() + "x").IsInvalidArgument());
  StatsMsg sb;
  EXPECT_TRUE(sb.Decode(StatsMsg().Encode() + "x").IsInvalidArgument());
}

TEST(ProtocolPayloadTest, TruncationsRejectedEverywhere) {
  // Every strict prefix of every payload encoding must be rejected by that
  // payload's own decoder — never a crash, never a partial accept.
  using DecodeFn = Status (*)(const std::string&);
  const std::vector<std::pair<std::string, DecodeFn>> cases = {
      {[] {
         OpenSessionReq r;
         r.client_id = 9;
         return r.Encode();
       }(),
       +[](const std::string& p) { return OpenSessionReq().Decode(p); }},
      {QueryReq{QueryKind::kMinMax, -1, 1}.Encode(),
       +[](const std::string& p) { return QueryReq().Decode(p); }},
      {[] {
         BatchReq b;
         b.queries.push_back({QueryKind::kCount, 0, 5});
         return b.Encode();
       }(),
       +[](const std::string& p) { return BatchReq().Decode(p); }},
      {[] {
         ResultMsg m;
         m.message = "boom";
         m.row_ids = {1, 2};
         return m.Encode();
       }(),
       +[](const std::string& p) { return ResultMsg().Decode(p); }},
      {[] {
         StatsMsg s;
         s.entries.emplace_back("k", 1);
         return s.Encode();
       }(),
       +[](const std::string& p) { return StatsMsg().Decode(p); }},
      {[] {
         BusyMsg b;
         b.shed_total = 5;
         return b.Encode();
       }(),
       +[](const std::string& p) { return BusyMsg().Decode(p); }},
  };
  for (const auto& [bytes, decode] : cases) {
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_TRUE(decode(bytes.substr(0, cut)).IsInvalidArgument())
          << "cut=" << cut << " of " << bytes.size();
    }
  }
}

// ----------------------------------------------------------------- fuzzing

TEST(ProtocolFuzzTest, RandomBytesNeverCrashTheFrameDecoder) {
  Rng rng(2026);
  for (int round = 0; round < 2000; ++round) {
    const size_t len = rng.Next() % 64;
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextByte()));
    }
    Frame f;
    size_t consumed = 0;
    Status s = TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                              bytes.size(), kDefaultMaxFrameBytes, &f,
                              &consumed);
    // Contract: OK-with-progress, OK-need-more, or a clean error; consumed
    // never exceeds what was offered.
    EXPECT_LE(consumed, bytes.size());
    if (!s.ok()) EXPECT_EQ(consumed, 0u);
  }
}

TEST(ProtocolFuzzTest, BitFlippedFramesNeverCrashPayloadDecoders) {
  Rng rng(4052);
  BatchReq batch;
  batch.queries.push_back({QueryKind::kCount, 5, 10});
  batch.queries.push_back({QueryKind::kRowIds, -3, 3});
  const std::string seeds[] = {
      OpenSessionReq().Encode(),     QueryReq{QueryKind::kSum, 1, 9}.Encode(),
      batch.Encode(),                InsertReq().Encode(),
      DeleteReq().Encode(),          ResultMsg::FromStatus(Status::Busy("x")).Encode(),
      StatsMsg().Encode(),           BusyMsg().Encode(),
  };
  for (int round = 0; round < 500; ++round) {
    for (const auto& seed : seeds) {
      std::string mutated = seed;
      if (mutated.empty()) continue;
      const int flips = 1 + static_cast<int>(rng.Next() % 4);
      for (int i = 0; i < flips; ++i) {
        mutated[rng.Next() % mutated.size()] ^=
            static_cast<char>(1u << (rng.Next() % 8));
      }
      // Feed the mutation to every decoder: outcomes are OK or a clean
      // InvalidArgument, never a crash or over-read.
      OpenSessionReq a;
      a.Decode(mutated);
      QueryReq q;
      q.Decode(mutated);
      BatchReq b;
      b.Decode(mutated);
      InsertReq ins;
      ins.Decode(mutated);
      DeleteReq del;
      del.Decode(mutated);
      ResultMsg m;
      m.Decode(mutated);
      BatchResultMsg bm;
      bm.Decode(mutated);
      StatsMsg s;
      s.Decode(mutated);
      BusyMsg busy;
      busy.Decode(mutated);
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace adaptidx
