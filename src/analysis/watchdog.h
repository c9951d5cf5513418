// Hang watchdog: a per-communicator monitor thread (opt-in via
// MLS_COMM_WATCHDOG / analysis::Options) that detects collectives or
// p2p operations stuck past a deadline and reports them *before* the
// substrate's generous rendezvous timeouts fire. It covers what the
// always-on entry check (comm/entry_check.h) cannot see: a rank that
// never arrives (a skipped collective, a stuck recv, a stalled peer).
//
// On detection it hands the owner a flight-recorder dump — every rank's
// last K comm events with in-flight markers ("who is waiting in what at
// which seq, issued from which call site") — and the owner poisons the
// communicator so all ranks unwind with that report instead of
// deadlocking under load (ROADMAP north star: fail loudly).
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "analysis/ledger.h"

namespace mls::analysis {

class Watchdog {
 public:
  // `on_hang` is invoked at most once, from the monitor thread, with
  // the full report. It must be callable until this Watchdog is
  // destroyed (the destructor joins the monitor).
  Watchdog(std::shared_ptr<Ledger> ledger,
           std::function<void(const std::string&)> on_hang);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // True once a hang has been reported (diagnostics / tests).
  bool fired() const;

 private:
  void loop();

  std::shared_ptr<Ledger> ledger_;
  std::function<void(const std::string&)> on_hang_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool fired_ = false;
  std::thread thread_;
};

}  // namespace mls::analysis
