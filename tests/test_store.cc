// Durable observation store: WAL framing, torn-tail and bad-CRC
// recovery, snapshot compaction, the LSN skip window, fault-injected
// mid-write crashes, and the headline guarantee — a session killed at
// any iteration replays to a bitwise-identical trajectory.

#include "store/observation_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "core/tuning_session.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "store/wal.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using store::EncodeWalFrame;
using store::ObservationStore;
using store::ScanWalFrames;
using store::StoreOptions;
using store::StoredSession;
using store::WalRecord;
using store::WalRecordType;
using store::WalScanResult;

// Restores the previous pool size even when an assertion fails.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(size_t n)
      : original_(ExecutionContext::Get().num_threads()) {
    ExecutionContext::Get().SetNumThreads(n);
  }
  ~PoolSizeGuard() { ExecutionContext::Get().SetNumThreads(original_); }

 private:
  size_t original_;
};

// Every test runs with the store env switches unset and the real clock.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    ::unsetenv("DBTUNE_STORE");
    ::unsetenv("DBTUNE_STORE_SNAPSHOT_EVERY");
    store::testing::SetWalWriteFaultForTest(-1);
    obs::DisableFakeClockForTest();
  }
};

/// A fresh store path in the test temp dir (leftovers removed).
std::string StorePath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "store_" + name + ".wal";
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());
  std::remove((path + ".snapshot.tmp").c_str());
  return path;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  ASSERT_TRUE(out.good());
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Observation MakeObs(std::vector<double> config, double score,
                    double objective, std::vector<double> metrics = {},
                    bool failed = false) {
  Observation obs;
  obs.config = Configuration(std::move(config));
  obs.score = score;
  obs.objective = objective;
  obs.failed = failed;
  obs.internal_metrics = std::move(metrics);
  return obs;
}

void ExpectObservationsBitEqual(const std::vector<Observation>& a,
                                const std::vector<Observation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].config.size(), b[i].config.size()) << "obs " << i;
    for (size_t j = 0; j < a[i].config.size(); ++j) {
      EXPECT_TRUE(BitEqual(a[i].config.values()[j], b[i].config.values()[j]))
          << "obs " << i << " dim " << j;
    }
    EXPECT_TRUE(BitEqual(a[i].score, b[i].score)) << "obs " << i;
    EXPECT_TRUE(BitEqual(a[i].objective, b[i].objective)) << "obs " << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << "obs " << i;
    ASSERT_EQ(a[i].internal_metrics.size(), b[i].internal_metrics.size());
    for (size_t j = 0; j < a[i].internal_metrics.size(); ++j) {
      EXPECT_TRUE(
          BitEqual(a[i].internal_metrics[j], b[i].internal_metrics[j]))
          << "obs " << i << " metric " << j;
    }
  }
}

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST_F(StoreTest, WalFramesRoundTrip) {
  std::string data(store::kWalMagic, sizeof(store::kWalMagic));
  std::vector<WalRecord> records(3);
  records[0] = {1, WalRecordType::kBeginSession, "alpha"};
  records[1] = {2, WalRecordType::kObservation, std::string("\0\xFF" "bin", 5)};
  records[2] = {3, WalRecordType::kEndSession, ""};  // empty body
  for (const WalRecord& record : records) data += EncodeWalFrame(record);

  const WalScanResult scan = ScanWalFrames(data, sizeof(store::kWalMagic));
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, data.size());
  ASSERT_EQ(scan.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan.records[i].lsn, records[i].lsn);
    EXPECT_EQ(scan.records[i].type, records[i].type);
    EXPECT_EQ(scan.records[i].body, records[i].body);
  }
}

TEST_F(StoreTest, WalScanStopsAtTornTail) {
  std::string data(store::kWalMagic, sizeof(store::kWalMagic));
  data += EncodeWalFrame({1, WalRecordType::kBeginSession, "s"});
  data += EncodeWalFrame({2, WalRecordType::kEndSession, "s"});
  const size_t intact = data.size();
  const std::string torn =
      EncodeWalFrame({3, WalRecordType::kObservation, "partial-record"});
  data += torn.substr(0, torn.size() / 2);  // crash mid-write

  const WalScanResult scan = ScanWalFrames(data, sizeof(store::kWalMagic));
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_EQ(scan.records.size(), 2u);
}

TEST_F(StoreTest, WalScanStopsAtCrcMismatch) {
  std::string data(store::kWalMagic, sizeof(store::kWalMagic));
  data += EncodeWalFrame({1, WalRecordType::kBeginSession, "s"});
  const size_t intact = data.size();
  data += EncodeWalFrame({2, WalRecordType::kObservation, "to-be-damaged"});
  data.back() ^= 0x40;  // flip one payload bit

  const WalScanResult scan = ScanWalFrames(data, sizeof(store::kWalMagic));
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST_F(StoreTest, EncoderDecoderRoundTripIsBitExact) {
  const std::vector<double> values = {0.1, -0.0, 1e-308, -1.7976931348623157e308,
                                      3.141592653589793};
  store::WalEncoder enc;
  enc.PutU8(7);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(1ull << 63);
  enc.PutString("sysbench/16g");
  enc.PutDoubles(values);

  store::WalDecoder dec(enc.bytes());
  EXPECT_EQ(dec.ReadU8().value(), 7);
  EXPECT_EQ(dec.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.ReadU64().value(), 1ull << 63);
  EXPECT_EQ(dec.ReadString().value(), "sysbench/16g");
  const std::vector<double> decoded = dec.ReadDoubles().value();
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(BitEqual(decoded[i], values[i])) << i;
  }
  EXPECT_TRUE(dec.AtEnd());
  // Reads past the end fail instead of walking off the buffer.
  EXPECT_FALSE(dec.ReadU8().ok());
}

// ---------------------------------------------------------------------------
// Store recovery
// ---------------------------------------------------------------------------

TEST_F(StoreTest, ReopenRecoversSessionsBitExact) {
  const std::string path = StorePath("reopen");
  std::vector<Observation> written;
  written.push_back(MakeObs({0.25, 0.5}, 1.5, 1500.0, {10.0, 20.0}));
  written.push_back(MakeObs({0.75, 0.1}, 0.0, 0.0, {}, true));
  written.push_back(MakeObs({0.33, 0.66}, 2.25, 2250.0, {11.0, 21.0}));
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 2).ok());
    for (size_t i = 0; i < written.size(); ++i) {
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written[i]).ok());
    }
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const StoredSession* session = (*reopened)->FindSession("s1");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->dimension, 2u);
  EXPECT_FALSE(session->finished);
  ExpectObservationsBitEqual(session->observations, written);
  EXPECT_EQ((*reopened)->stats().wal_records_replayed, 4u);  // begin + 3 obs
  EXPECT_FALSE((*reopened)->stats().loaded_snapshot);
  EXPECT_FALSE((*reopened)->stats().recovered_torn_tail);
}

// Concurrent serving sessions share one store: appends from different
// sessions interleave in the WAL but recover into independent,
// order-preserved, bit-exact histories.
TEST_F(StoreTest, InterleavedSessionAppendsRecoverIndependently) {
  const std::string path = StorePath("interleaved");
  std::vector<Observation> written_a;
  std::vector<Observation> written_b;
  for (size_t i = 0; i < 4; ++i) {
    written_a.push_back(MakeObs({0.1 + 0.2 * static_cast<double>(i), 0.5},
                                1.0 + static_cast<double>(i),
                                10.0 * static_cast<double>(i + 1),
                                {100.0 + static_cast<double>(i)}));
    written_b.push_back(MakeObs({0.9 - 0.2 * static_cast<double>(i)},
                                -2.0 - static_cast<double>(i),
                                5.0 * static_cast<double>(i + 1)));
  }
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("a", 2).ok());
    ASSERT_TRUE(s.BeginSession("b", 1).ok());
    // a1 b1 a2 b2 a3 b3 a4 b4 — each session keeps its own 1-based
    // iteration counter regardless of the WAL-global interleaving.
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(s.AppendObservation("a", i + 1, written_a[i]).ok());
      ASSERT_TRUE(s.AppendObservation("b", i + 1, written_b[i]).ok());
    }
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const StoredSession* a = (*reopened)->FindSession("a");
  const StoredSession* b = (*reopened)->FindSession("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->dimension, 2u);
  EXPECT_EQ(b->dimension, 1u);
  ExpectObservationsBitEqual(a->observations, written_a);
  ExpectObservationsBitEqual(b->observations, written_b);
}

// Two sessions appending from two threads (the serve fan-out shape: one
// writer thread per session): the store's internal lock serializes the
// WAL, every append lands, and recovery is bit-exact for both.
TEST_F(StoreTest, TwoThreadsAppendingDistinctSessionsRecoverBitExact) {
  const std::string path = StorePath("two_thread");
  constexpr size_t kAppends = 50;
  std::vector<Observation> written_a;
  std::vector<Observation> written_b;
  for (size_t i = 0; i < kAppends; ++i) {
    const double t = static_cast<double>(i);
    written_a.push_back(MakeObs({t / kAppends, 0.25}, t, 2.0 * t, {t + 0.5}));
    written_b.push_back(MakeObs({1.0 - t / kAppends, 0.75}, -t, 3.0 * t));
  }
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("a", 2).ok());
    ASSERT_TRUE(s.BeginSession("b", 2).ok());
    std::thread writer_a([&] {
      for (size_t i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(s.AppendObservation("a", i + 1, written_a[i]).ok());
      }
    });
    std::thread writer_b([&] {
      for (size_t i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(s.AppendObservation("b", i + 1, written_b[i]).ok());
      }
    });
    writer_a.join();
    writer_b.join();
    ExpectObservationsBitEqual(s.FindSession("a")->observations, written_a);
    ExpectObservationsBitEqual(s.FindSession("b")->observations, written_b);
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const StoredSession* a = (*reopened)->FindSession("a");
  const StoredSession* b = (*reopened)->FindSession("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ExpectObservationsBitEqual(a->observations, written_a);
  ExpectObservationsBitEqual(b->observations, written_b);
}

TEST_F(StoreTest, AppendValidatesSessionIterationAndArity) {
  const std::string path = StorePath("validate");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  const Observation obs = MakeObs({0.5, 0.5}, 1.0, 1.0);

  EXPECT_FALSE(s.AppendObservation("ghost", 1, obs).ok());  // unknown id
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  EXPECT_FALSE(s.AppendObservation("s1", 2, obs).ok());  // gap
  EXPECT_FALSE(s.AppendObservation("s1", 0, obs).ok());  // not 1-based
  EXPECT_FALSE(
      s.AppendObservation("s1", 1, MakeObs({0.5}, 1.0, 1.0)).ok());  // arity
  EXPECT_TRUE(s.AppendObservation("s1", 1, obs).ok());
  EXPECT_FALSE(s.AppendObservation("s1", 1, obs).ok());  // double apply
}

TEST_F(StoreTest, BeginSessionResumesRestartsAndRejectsDimensionChange) {
  const std::string path = StorePath("begin");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore& s = **opened;
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  ASSERT_TRUE(s.AppendObservation("s1", 1, MakeObs({0.5, 0.5}, 1.0, 1.0)).ok());

  // Resuming an unfinished session with the same dimension keeps history.
  ASSERT_TRUE(s.BeginSession("s1", 2).ok());
  EXPECT_EQ(s.FindSession("s1")->observations.size(), 1u);
  // A different dimension on a live session is a hard error.
  EXPECT_FALSE(s.BeginSession("s1", 3).ok());

  // After FinishSession the same id starts over, empty.
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  ASSERT_TRUE(s.FinishSession("s1", env.space(), "s1-task").ok());
  EXPECT_TRUE(s.FindSession("s1")->finished);
  EXPECT_FALSE(
      s.AppendObservation("s1", 2, MakeObs({0.5, 0.5}, 1.0, 1.0)).ok());
  ASSERT_TRUE(s.BeginSession("s1", 3).ok());
  EXPECT_EQ(s.FindSession("s1")->observations.size(), 0u);
  EXPECT_EQ(s.FindSession("s1")->dimension, 3u);
}

TEST_F(StoreTest, CheckpointCompactsWalAndRecoversFromSnapshot) {
  const std::string path = StorePath("checkpoint");
  StoreOptions options;
  options.snapshot_every = 3;
  std::vector<Observation> written;
  {
    auto opened = ObservationStore::Open(path, options);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    for (size_t i = 0; i < 7; ++i) {
      written.push_back(MakeObs({0.1 * static_cast<double>(i)},
                                static_cast<double>(i), 100.0 + i, {1.0 + i}));
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written.back()).ok());
    }
    EXPECT_EQ(s.stats().checkpoints, 2u);  // after obs 3 and 6
  }
  EXPECT_TRUE(std::filesystem::exists(path + ".snapshot"));
  // Two checkpoints compacted all but the post-snapshot tail: the WAL
  // holds only the header and the single record appended since.
  const std::string wal = ReadBytes(path);
  const WalScanResult scan = ScanWalFrames(wal, sizeof(store::kWalMagic));
  EXPECT_EQ(scan.records.size(), 1u);

  auto reopened = ObservationStore::Open(path, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->stats().loaded_snapshot);
  EXPECT_EQ((*reopened)->stats().wal_records_replayed, 1u);
  const StoredSession* session = (*reopened)->FindSession("s1");
  ASSERT_NE(session, nullptr);
  ExpectObservationsBitEqual(session->observations, written);
}

TEST_F(StoreTest, RecoverySkipsWalRecordsCoveredBySnapshot) {
  // Crash window between the snapshot rename and the WAL compaction: the
  // WAL still holds records the snapshot already covers. Their LSNs are
  // at or below the snapshot's covered LSN, so recovery must skip them
  // instead of double-applying.
  const std::string path = StorePath("lsn_skip");
  std::vector<Observation> written;
  {
    auto opened = ObservationStore::Open(path);  // snapshot_every=64: manual
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    for (size_t i = 0; i < 3; ++i) {
      written.push_back(MakeObs({0.2 * static_cast<double>(i)}, 1.0 + i,
                                10.0 + i));
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written.back()).ok());
    }
  }
  const std::string pre_checkpoint_wal = ReadBytes(path);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  // Undo the compaction only — exactly what a crash right after the
  // snapshot rename leaves behind.
  WriteBytes(path, pre_checkpoint_wal);

  auto recovered = ObservationStore::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->stats().loaded_snapshot);
  EXPECT_EQ((*recovered)->stats().wal_records_replayed, 0u);  // all skipped
  const StoredSession* session = (*recovered)->FindSession("s1");
  ASSERT_NE(session, nullptr);
  ExpectObservationsBitEqual(session->observations, written);
}

TEST_F(StoreTest, TornTailIsTruncatedAndAppendsResume) {
  const std::string path = StorePath("torn");
  std::vector<Observation> written;
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    for (size_t i = 0; i < 2; ++i) {
      written.push_back(MakeObs({0.3 * static_cast<double>(i)}, 1.0 + i,
                                10.0 + i));
      ASSERT_TRUE(s.AppendObservation("s1", i + 1, written.back()).ok());
    }
  }
  WriteBytes(path, ReadBytes(path) + "XYZ-torn-garbage");

  auto recovered = ObservationStore::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->stats().recovered_torn_tail);
  const StoredSession* session = (*recovered)->FindSession("s1");
  ASSERT_NE(session, nullptr);
  ExpectObservationsBitEqual(session->observations, written);

  // The tail is gone from disk, so the next append lands cleanly.
  ASSERT_TRUE((*recovered)
                  ->AppendObservation("s1", 3, MakeObs({0.9}, 9.0, 90.0))
                  .ok());
  auto again = ObservationStore::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->stats().recovered_torn_tail);
  EXPECT_EQ((*again)->FindSession("s1")->observations.size(), 3u);
}

TEST_F(StoreTest, InjectedWriteFaultLeavesRecoverableTornTail) {
  const std::string path = StorePath("fault");
  const Observation first = MakeObs({0.5}, 1.0, 10.0, {5.0});
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 1, first).ok());
    // Allow 10 more bytes, then "crash": the frame is torn mid-write.
    store::testing::SetWalWriteFaultForTest(10);
    EXPECT_FALSE(
        s.AppendObservation("s1", 2, MakeObs({0.6}, 2.0, 20.0)).ok());
    store::testing::SetWalWriteFaultForTest(-1);
    // The writer shut itself down; later appends fail too.
    EXPECT_FALSE(
        s.AppendObservation("s1", 2, MakeObs({0.7}, 3.0, 30.0)).ok());
  }
  auto recovered = ObservationStore::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->stats().recovered_torn_tail);
  const StoredSession* session = (*recovered)->FindSession("s1");
  ASSERT_NE(session, nullptr);
  ExpectObservationsBitEqual(session->observations, {first});
}

TEST_F(StoreTest, TruncateSessionDiscardsSuffixDurably) {
  const std::string path = StorePath("truncate");
  const Observation kept = MakeObs({0.1}, 1.0, 10.0);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 1).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 1, kept).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 2, MakeObs({0.2}, 2.0, 20.0)).ok());
    ASSERT_TRUE(s.AppendObservation("s1", 3, MakeObs({0.3}, 3.0, 30.0)).ok());
    ASSERT_TRUE(s.TruncateSession("s1", 1).ok());
    EXPECT_EQ(s.FindSession("s1")->observations.size(), 1u);
    // The next live iteration continues right after the kept prefix.
    ASSERT_TRUE(s.AppendObservation("s1", 2, MakeObs({0.4}, 4.0, 40.0)).ok());
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  const StoredSession* session = (*reopened)->FindSession("s1");
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->observations.size(), 2u);
  ExpectObservationsBitEqual({session->observations[0]}, {kept});
  EXPECT_TRUE(BitEqual(session->observations[1].score, 4.0));
}

TEST_F(StoreTest, FinishSessionPersistsTransferTask) {
  const std::string path = StorePath("finish");
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 1});
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore& s = **opened;
    ASSERT_TRUE(s.BeginSession("s1", 2).ok());
    ASSERT_TRUE(
        s.AppendObservation("s1", 1, MakeObs({0.5, 0.5}, 1.0, 10.0, {3.0}))
            .ok());
    ASSERT_TRUE(
        s.AppendObservation("s1", 2, MakeObs({0.6, 0.4}, 2.0, 20.0, {5.0}))
            .ok());
    ASSERT_TRUE(s.FinishSession("s1", env.space(), "sysbench-s1").ok());
    EXPECT_EQ(s.num_tasks(), 1u);
    EXPECT_FALSE(s.FinishSession("s1", env.space(), "again").ok());
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_tasks(), 1u);
  EXPECT_TRUE((*reopened)->FindSession("s1")->finished);

  ObservationRepository repository;
  (*reopened)->ExportTasks(&repository);
  ASSERT_EQ(repository.size(), 1u);
  const SourceTask& task = repository.tasks()[0];
  EXPECT_EQ(task.name, "sysbench-s1");
  EXPECT_EQ(task.unit_x.size(), 2u);
  EXPECT_EQ(task.scores.size(), 2u);

  // An externally built task joins the pool durably too.
  ASSERT_TRUE((*reopened)->PersistTask(task).ok());
  auto again = ObservationStore::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_tasks(), 2u);
}

TEST_F(StoreTest, ResolvePathAndSnapshotCadenceFollowEnvironment) {
  EXPECT_EQ(ObservationStore::ResolvePath("explicit.wal"), "explicit.wal");
  EXPECT_EQ(ObservationStore::ResolvePath(""), "");
  ::setenv("DBTUNE_STORE", "/tmp/env.wal", 1);
  EXPECT_EQ(ObservationStore::ResolvePath(""), "/tmp/env.wal");
  EXPECT_EQ(ObservationStore::ResolvePath("explicit.wal"), "explicit.wal");

  EXPECT_EQ(ObservationStore::ResolveSnapshotEvery(),
            StoreOptions{}.snapshot_every);
  ::setenv("DBTUNE_STORE_SNAPSHOT_EVERY", "17", 1);
  EXPECT_EQ(ObservationStore::ResolveSnapshotEvery(), 17u);
  ::setenv("DBTUNE_STORE_SNAPSHOT_EVERY", "banana", 1);
  EXPECT_EQ(ObservationStore::ResolveSnapshotEvery(),
            StoreOptions{}.snapshot_every);
}

// ---------------------------------------------------------------------------
// Crash-recovery replay: killed session == uninterrupted session
// ---------------------------------------------------------------------------

SessionResult RunStoredSession(const std::string& store_path, size_t iters,
                               uint64_t optimizer_seed) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 21);
  SessionControls controls;
  controls.store_path = store_path;  // "" → no store
  controls.store_session_id = "kill-test";
  return RunTuningSession(&sim, FirstKnobs(sim.space().dimension()),
                          OptimizerType::kSmac, iters, optimizer_seed,
                          controls);
}

void ExpectSessionResultsBitEqual(const SessionResult& a,
                                  const SessionResult& b) {
  ASSERT_EQ(a.improvement_trace.size(), b.improvement_trace.size());
  for (size_t i = 0; i < a.improvement_trace.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.improvement_trace[i], b.improvement_trace[i]))
        << "improvement at iteration " << i;
    EXPECT_TRUE(BitEqual(a.objective_trace[i], b.objective_trace[i]))
        << "objective at iteration " << i;
  }
  EXPECT_TRUE(BitEqual(a.final_objective, b.final_objective));
  EXPECT_TRUE(BitEqual(a.final_improvement, b.final_improvement));
  EXPECT_EQ(a.best_iteration, b.best_iteration);
  EXPECT_TRUE(BitEqual(a.simulated_evaluation_seconds,
                       b.simulated_evaluation_seconds));
}

TEST_F(StoreTest, KilledSessionReplaysToIdenticalTrajectory) {
  constexpr size_t kIterations = 12;
  obs::EnableFakeClockForTest();
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    PoolSizeGuard guard(pool);
    const SessionResult uninterrupted = RunStoredSession("", kIterations, 7);
    for (const size_t kill_at : {size_t{1}, size_t{6}, size_t{11}}) {
      const std::string path = StorePath(
          "kill_p" + std::to_string(pool) + "_k" + std::to_string(kill_at));
      // First run "dies" after kill_at iterations...
      const SessionResult partial = RunStoredSession(path, kill_at, 7);
      EXPECT_EQ(partial.replayed_iterations, 0u);
      // ...and the restart replays the prefix, then continues live.
      const SessionResult resumed = RunStoredSession(path, kIterations, 7);
      EXPECT_EQ(resumed.replayed_iterations, kill_at)
          << "pool " << pool << " kill " << kill_at;
      ExpectSessionResultsBitEqual(resumed, uninterrupted);
    }
  }
}

TEST_F(StoreTest, KilledSessionWithTornTailStillReplays) {
  constexpr size_t kIterations = 10;
  constexpr size_t kKillAt = 5;
  obs::EnableFakeClockForTest();
  PoolSizeGuard guard(1);
  const std::string path = StorePath("kill_torn");
  const SessionResult uninterrupted = RunStoredSession("", kIterations, 9);
  const SessionResult partial = RunStoredSession(path, kKillAt, 9);
  ASSERT_EQ(partial.improvement_trace.size(), kKillAt);
  // The crash also tore the final record mid-write.
  WriteBytes(path, ReadBytes(path) + std::string(6, '\x5A'));

  const SessionResult resumed = RunStoredSession(path, kIterations, 9);
  EXPECT_EQ(resumed.replayed_iterations, kKillAt);
  ExpectSessionResultsBitEqual(resumed, uninterrupted);
}

TEST_F(StoreTest, ReplayDivergenceTruncatesAndContinuesLive) {
  constexpr size_t kIterations = 8;
  obs::EnableFakeClockForTest();
  PoolSizeGuard guard(1);
  const std::string path = StorePath("diverge");
  // Record a trajectory under one optimizer seed, then resume under a
  // different seed: the recorded configurations no longer match what the
  // optimizer re-suggests, so the store must truncate the stale suffix
  // and the session must match a fresh run of the new seed exactly.
  const SessionResult recorded = RunStoredSession(path, 5, 11);
  ASSERT_EQ(recorded.improvement_trace.size(), 5u);
  const SessionResult fresh = RunStoredSession("", kIterations, 13);
  const SessionResult resumed = RunStoredSession(path, kIterations, 13);
  EXPECT_LT(resumed.replayed_iterations, 5u);
  ExpectSessionResultsBitEqual(resumed, fresh);

  // The store now holds the new trajectory, iteration-complete.
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  const StoredSession* session = (*reopened)->FindSession("kill-test");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->observations.size(), kIterations);
}

TEST_F(StoreTest, SessionsOnAReusedEnvironmentPersistEveryObservation) {
  // Two sessions back to back on one environment: the second starts with
  // a non-empty environment history, yet its WAL indices count its own
  // observations from 1.
  constexpr size_t kIterations = 4;
  const std::string path = StorePath("reused_env");
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, 5);
    TuningEnvironment env(&sim, FirstKnobs(sim.space().dimension()));
    for (const std::string id : {"s0", "s1"}) {
      OptimizerOptions options;
      options.seed = 3;
      std::unique_ptr<Optimizer> optimizer =
          CreateOptimizer(OptimizerType::kRandomSearch, env.space(), options);
      SessionControls controls;
      controls.store = opened->get();
      controls.store_session_id = id;
      RunTuningSession(&env, optimizer.get(), kIterations, controls);
    }
    EXPECT_EQ(env.iterations(), 2 * kIterations);
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  for (const std::string id : {"s0", "s1"}) {
    const StoredSession* session = (*reopened)->FindSession(id);
    ASSERT_NE(session, nullptr) << id;
    EXPECT_EQ(session->observations.size(), kIterations) << id;
  }
}

TEST_F(StoreTest, AdvisorPersistsBaseTaskAcrossRuns) {
  const std::string path = StorePath("advisor");
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 31);
  AdvisorOptions options;
  options.importance_samples = 120;
  options.tuning_knobs = 5;
  options.tuning_iterations = 6;
  options.seed = 32;
  options.session.store_path = path;
  options.session.store_session_id = "advisor-run-1";
  const Result<AdvisorReport> first = TuneDbms(&sim, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->num_tasks(), 1u);
    const StoredSession* session = (*opened)->FindSession("advisor-run-1");
    ASSERT_NE(session, nullptr);
    EXPECT_TRUE(session->finished);
    EXPECT_EQ(session->observations.size(), 6u);
  }
  // A second run finds the persisted base task (transfer pool) and adds
  // its own on completion.
  DbmsSimulator sim2(WorkloadId::kSysbench, HardwareInstance::kB, 33);
  options.seed = 34;
  options.session.store_session_id = "advisor-run-2";
  const Result<AdvisorReport> second = TuneDbms(&sim2, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->num_tasks(), 2u);
}

}  // namespace
}  // namespace dbtune
