// Tests for the common utilities: formatting, tables, the memory
// tracker's accounting rules, and the failure semantics of the barrier
// and mailbox primitives.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "comm/barrier.h"
#include "comm/mailbox.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace mls {
namespace {

TEST(Rng, SkipNormalsMatchesDrawing) {
  // skip_normals(n) then k draws must equal n + k draws bit for bit,
  // from a fresh pair boundary and with a cached normal pending.
  for (const bool cached : {false, true}) {
    for (int64_t n = 0; n <= 9; ++n) {
      for (int64_t k = 1; k <= 3; ++k) {
        Rng drawn(1234 + static_cast<uint64_t>(n));
        Rng skipped = drawn;
        if (cached) {
          drawn.next_normal();
          skipped.next_normal();
        }
        for (int64_t i = 0; i < n; ++i) drawn.next_normal();
        skipped.skip_normals(n);
        for (int64_t i = 0; i < k; ++i) {
          const double a = drawn.next_normal();
          const double b = skipped.next_normal();
          EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
              << "cached=" << cached << " n=" << n << " draw " << i;
        }
        EXPECT_EQ(drawn.next_u64(), skipped.next_u64());
      }
    }
  }
}

TEST(Units, ByteFormatting) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(2.73 * 1024 * 1024 * 1024), "2.73 GB");
  EXPECT_DOUBLE_EQ(bytes_to_gb(80.0 * 1024 * 1024 * 1024), 80.0);
}

TEST(Units, FlopsTimePercentFormatting) {
  EXPECT_EQ(format_flops(312e12), "312.00 TFLOP");
  EXPECT_EQ(format_time_ms(0.0077), "7.70 ms");
  EXPECT_EQ(format_percent(0.29), "29.0%");
  EXPECT_EQ(format_percent(0.542, 1), "54.2%");
}

TEST(Table, RendersAlignedCells) {
  Table t({"a", "long header"});
  t.add_row({"xx", "1"});
  t.add_separator();
  t.add_row({"y", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a  | long header |"), std::string::npos);
  EXPECT_NE(s.find("| xx | 1           |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, TrailingSeparatorDoesNotDouble) {
  Table t({"c"});
  t.add_row({"v"});
  t.add_separator();
  const std::string s = t.str();
  // Exactly: top, after-header, bottom => 3 horizontal lines.
  int lines = 0;
  for (size_t pos = 0; (pos = s.find("+--", pos)) != std::string::npos; ++pos) ++lines;
  EXPECT_EQ(lines, 3);
}

TEST(MemoryTracker, MajorMinorAndPeakAccounting) {
  auto& mt = MemoryTracker::instance();
  mt.reset();
  mt.on_save(100);
  EXPECT_EQ(mt.current_major_bytes(), 100);
  mt.on_save(7, /*major=*/false);
  EXPECT_EQ(mt.current_minor_bytes(), 7);
  EXPECT_EQ(mt.current_bytes(), 107);
  mt.on_alloc_extra(50);
  EXPECT_EQ(mt.peak_bytes(), 157);
  mt.on_free_extra(50);
  mt.on_release(100);
  EXPECT_EQ(mt.current_major_bytes(), 0);
  EXPECT_EQ(mt.peak_bytes(), 157);  // peak is sticky
  mt.reset();
  EXPECT_EQ(mt.peak_bytes(), 0);
}

TEST(MemoryTracker, PerThreadIsolation) {
  auto& mt = MemoryTracker::instance();
  mt.reset();
  mt.on_save(10);
  int64_t other_bytes = -1;
  std::thread other([&] {
    other_bytes = MemoryTracker::instance().current_bytes();
  });
  other.join();
  EXPECT_EQ(other_bytes, 0);  // each thread = one simulated GPU
  EXPECT_EQ(mt.current_bytes(), 10);
  mt.reset();
}

TEST(Barrier, RendezvousAndPoison) {
  comm::Barrier b(2);
  std::thread peer([&] { b.arrive_and_wait(); });
  b.arrive_and_wait();
  peer.join();

  // Poisoned barrier throws for current and future waiters.
  comm::Barrier dead(2);
  std::thread waiter([&] { EXPECT_THROW(dead.arrive_and_wait(), Error); });
  dead.poison();
  waiter.join();
  EXPECT_THROW(dead.arrive_and_wait(), Error);
}

TEST(Barrier, TimesOutWhenPeerNeverArrives) {
  comm::Barrier b(2);
  EXPECT_THROW(b.arrive_and_wait(std::chrono::seconds(0)), Error);
}

TEST(Mailbox, ChannelsAreIndependentAndFifo) {
  comm::Mailbox mb;
  mb.send(0, 1, /*tag=*/5, Tensor::full(Shape{{1}}, 1.f));
  mb.send(0, 1, /*tag=*/6, Tensor::full(Shape{{1}}, 2.f));
  mb.send(0, 1, /*tag=*/5, Tensor::full(Shape{{1}}, 3.f));
  EXPECT_FLOAT_EQ(mb.recv(0, 1, 6).item(), 2.f);
  EXPECT_FLOAT_EQ(mb.recv(0, 1, 5).item(), 1.f);
  EXPECT_FLOAT_EQ(mb.recv(0, 1, 5).item(), 3.f);
  EXPECT_EQ(mb.total_bytes(), 3 * 2);  // three fp16 scalars
}

TEST(Mailbox, PoisonWakesBlockedReceiver) {
  comm::Mailbox mb;
  std::thread rx([&] { EXPECT_THROW(mb.recv(0, 1, 0), Error); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mb.poison();
  rx.join();
}

TEST(Mailbox, RecvTimesOutOnEmptyChannel) {
  comm::Mailbox mb;
  EXPECT_THROW(mb.recv(0, 1, 0, std::chrono::seconds(0)), Error);
}

}  // namespace
}  // namespace mls
