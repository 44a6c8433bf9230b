// Property tests for the wire protocol: round-trip fidelity and rejection
// of every malformed-frame class (truncation, corruption, wrong type).
#include <gtest/gtest.h>

#include "master/wire.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::master {
namespace {

TEST(Wire, RegisterRoundTrip) {
  RegisterMsg msg{7, {sched::PeType::kGpu, 3}};
  const auto frame = encode_register(msg);
  EXPECT_EQ(frame_type(frame), MessageType::kRegister);
  const RegisterMsg decoded = decode_register(frame);
  EXPECT_EQ(decoded.worker_id, 7u);
  EXPECT_EQ(decoded.pe.type, sched::PeType::kGpu);
  EXPECT_EQ(decoded.pe.index, 3u);
}

TEST(Wire, OrderRoundTrip) {
  const TaskOrder order{123456789012345ULL, 42};
  const TaskOrder decoded = decode_order(encode_order(order));
  EXPECT_EQ(decoded.task_id, order.task_id);
  EXPECT_EQ(decoded.query_index, order.query_index);
}

void expect_same_report(const TaskReport& decoded, const TaskReport& report) {
  EXPECT_EQ(decoded.task_id, report.task_id);
  EXPECT_EQ(decoded.query_index, report.query_index);
  EXPECT_EQ(decoded.worker_id, report.worker_id);
  EXPECT_EQ(decoded.pe.type, report.pe.type);
  EXPECT_EQ(decoded.pe.index, report.pe.index);
  EXPECT_EQ(decoded.failed, report.failed);
  EXPECT_EQ(decoded.cells, report.cells);
  EXPECT_DOUBLE_EQ(decoded.wall_seconds, report.wall_seconds);
  EXPECT_DOUBLE_EQ(decoded.virtual_seconds, report.virtual_seconds);
  EXPECT_EQ(decoded.filter.candidates, report.filter.candidates);
  EXPECT_EQ(decoded.filter.rescans, report.filter.rescans);
  EXPECT_EQ(decoded.filter.band_uncertain, report.filter.band_uncertain);
  ASSERT_EQ(decoded.hits.size(), report.hits.size());
  for (std::size_t i = 0; i < report.hits.size(); ++i) {
    EXPECT_EQ(decoded.hits[i].db_index, report.hits[i].db_index) << i;
    EXPECT_EQ(decoded.hits[i].score, report.hits[i].score) << i;
  }
}

TEST(Wire, ReportRoundTripWithHits) {
  Rng rng(1);
  for (int rep = 0; rep < 20; ++rep) {
    TaskReport report;
    report.task_id = rng.below(1'000'000);
    report.query_index = rng.below(1000);
    report.worker_id = rng.below(16);
    report.pe = {rep % 2 == 0 ? sched::PeType::kCpu : sched::PeType::kGpu,
                 rng.below(8)};
    report.failed = rep % 3 == 0;
    report.cells = rng.next();
    report.wall_seconds = rng.uniform() * 100;
    report.virtual_seconds = rng.uniform() * 1000;
    const auto n = rng.below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      report.hits.emplace_back(rng.next(),
                               static_cast<int>(rng.between(-5, 30000)));
    }
    expect_same_report(decode_report(encode_report(report)), report);
  }
}

TEST(Wire, FilteredReportRoundTrip) {
  // A real filtered task answer: candidate-ranked hits plus the counters.
  Rng rng(5);
  const seq::Sequence query = seq::random_protein(rng, "q", 90);
  std::vector<seq::Sequence> db;
  for (int i = 0; i < 60; ++i) {
    db.push_back(seq::random_protein(
        rng, "d" + std::to_string(i),
        static_cast<std::size_t>(rng.between(20, 200))));
  }
  align::FilterConfig filter;
  filter.mode = align::FilterMode::kHeuristic;
  filter.band = 8;
  const align::FilteredSearchResult filtered = align::search_database_filtered(
      {query.residues.data(), query.residues.size()}, align::make_db_view(db),
      align::ScoringScheme{}, align::KernelKind::kInterSeq, 7, filter);

  TaskReport report;
  report.task_id = 11;
  report.query_index = 3;
  report.worker_id = 2;
  report.pe = {sched::PeType::kGpu, 1};
  report.hits = filtered.hits;
  report.filter = filtered.stats;
  report.cells = filtered.result.cells;
  report.wall_seconds = 0.25;
  report.virtual_seconds = 1.5;
  ASSERT_EQ(report.hits.size(), 7u);
  ASSERT_GT(report.filter.candidates, 0u);
  expect_same_report(decode_report(encode_report(report)), report);
}

TEST(Wire, ShutdownFrame) {
  const auto frame = encode_shutdown();
  EXPECT_EQ(frame_type(frame), MessageType::kShutdown);
}

TEST(Wire, TruncatedFrameRejected) {
  auto frame = encode_order({1, 2});
  frame.resize(frame.size() - 3);
  EXPECT_THROW(decode_order(frame), IoError);
  frame.resize(4);
  EXPECT_THROW(frame_type(frame), IoError);
}

TEST(Wire, CorruptPayloadRejectedByChecksum) {
  auto frame = encode_order({1, 2});
  frame[10] ^= 0x55;  // flip bits inside the payload
  EXPECT_THROW(decode_order(frame), IoError);
}

TEST(Wire, CorruptChecksumRejected) {
  auto frame = encode_order({1, 2});
  frame.back() ^= 0xff;
  EXPECT_THROW(decode_order(frame), IoError);
}

TEST(Wire, BadMagicRejected) {
  auto frame = encode_order({1, 2});
  frame[0] = 'X';
  EXPECT_THROW(frame_type(frame), IoError);
  EXPECT_THROW(decode_order(frame), IoError);
}

TEST(Wire, WrongTypeRejected) {
  const auto frame = encode_order({1, 2});
  EXPECT_THROW(decode_report(frame), IoError);
  EXPECT_THROW(decode_register(frame), IoError);
}

TEST(Wire, FuzzedFramesNeverCrash) {
  // Random byte soup must always throw IoError, never read out of bounds.
  Rng rng(99);
  for (int rep = 0; rep < 500; ++rep) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_THROW(
        {
          try {
            decode_report(junk);
          } catch (const IoError&) {
            throw;
          } catch (...) {
            FAIL() << "wrong exception type for fuzz input";
          }
        },
        IoError);
  }
}

TEST(Wire, LengthFieldLyingAboutSizeRejected) {
  auto frame = encode_order({1, 2});
  frame[5] = 0xff;  // claim a much longer payload than present
  EXPECT_THROW(decode_order(frame), IoError);
}

}  // namespace
}  // namespace swdual::master
