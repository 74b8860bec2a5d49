// Host-clock tracing for the benchmark: spans recorded around calls into the
// program's public layer functions, kept in memory and written out when the run
// ends. Nothing here is compiled into the program; the fleet wrappers reach it
// only through the Transport and EventSink interfaces the fleet classes take.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/fleet/transport.h"
#include "src/telemetry/journal.h"

namespace perfbench {

// Append-only span store. Spans carry host nanoseconds since the log's epoch and
// the virtual microseconds the call advanced its board clock (0 for calls that do
// not touch a board). Thread-safe: the fleet wrappers record from the worker's
// session, pump and orchestrator threads at once.
class SpanLog {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t vus = 0;
  };

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Interns `name`; call outside hot loops and keep the id.
  int Name(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<int>(i);
      }
    }
    names_.push_back(name);
    return static_cast<int>(names_.size() - 1);
  }

  int Add(int name, int parent, int64_t start_ns, int64_t end_ns, uint64_t vus = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, start_ns, end_ns, vus});
    return static_cast<int>(spans_.size() - 1);
  }

  // Opens a span whose end is set later by Close (campaign roots).
  int Open(int name, int parent) { return Add(name, parent, Now(), -1); }
  void Close(int span) {
    int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].end_ns = now;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Frame and byte counts per message type, as seen from the worker's end.
struct FrameCount {
  uint64_t frames = 0;
  uint64_t bytes = 0;  // header + payload
};

// Worker-side Transport wrapper. Always notes when each lease grant arrives (the
// fleet set-up clock); with `log` set it also records one span per request/reply
// round trip ("fleet.lease_rtt", "fleet.sync_rtt", "fleet.other") and counts frames
// and bytes per message type. The worker is the transport's only user, so the
// pending-request state needs no lock.
class TimingTransport : public eof::fleet::Transport {
 public:
  TimingTransport(eof::fleet::Transport* inner, SpanLog* clock, SpanLog* log, int parent)
      : inner_(inner), clock_(clock), log_(log), parent_(parent) {
    if (log_ != nullptr) {
      lease_ = log_->Name("fleet.lease_rtt");
      sync_ = log_->Name("fleet.sync_rtt");
      other_ = log_->Name("fleet.other");
    }
  }

  eof::Status Send(const eof::fleet::Frame& frame) override {
    pending_type_ = frame.type;
    pending_start_ = clock_->Now();
    if (log_ != nullptr) {
      Count(frame);
    }
    return inner_->Send(frame);
  }

  eof::Result<eof::fleet::Frame> Recv(int timeout_ms) override {
    eof::Result<eof::fleet::Frame> frame = inner_->Recv(timeout_ms);
    int64_t now = clock_->Now();
    if (!frame.ok()) {
      return frame;
    }
    using eof::fleet::MsgType;
    if (frame->type == MsgType::kLeaseGrant) {
      grant_ns_.push_back(now);
    }
    if (log_ != nullptr) {
      Count(*frame);
      int name = other_;
      if (pending_type_ == MsgType::kLeaseRequest && frame->type == MsgType::kLeaseGrant) {
        name = lease_;
        grant_bytes_.push_back(frame->payload.size());
      } else if (pending_type_ == MsgType::kSync && frame->type == MsgType::kSyncAck) {
        name = sync_;
      }
      log_->Add(name, parent_, pending_start_, now);
    }
    return frame;
  }

  void Close() override { inner_->Close(); }

  const std::vector<int64_t>& grant_ns() const { return grant_ns_; }
  const std::vector<uint64_t>& grant_bytes() const { return grant_bytes_; }
  const std::map<eof::fleet::MsgType, FrameCount>& frames() const { return frames_; }

 private:
  void Count(const eof::fleet::Frame& frame) {
    FrameCount& count = frames_[frame.type];
    ++count.frames;
    count.bytes += eof::fleet::kFrameHeaderBytes + frame.payload.size();
  }

  eof::fleet::Transport* inner_;
  SpanLog* clock_;
  SpanLog* log_;
  int parent_;
  int lease_ = 0, sync_ = 0, other_ = 0;
  eof::fleet::MsgType pending_type_ = eof::fleet::MsgType::kGoodbye;
  int64_t pending_start_ = 0;
  std::vector<int64_t> grant_ns_;
  std::vector<uint64_t> grant_bytes_;
  std::map<eof::fleet::MsgType, FrameCount> frames_;
};

// EventSink wrapper around a file journal. Always notes when each journaled
// "deploy" span row arrives (the end of a board's bring-up on the host clock);
// with `log` set it also records a "telemetry.emit" span around every Emit.
class TimingSink : public eof::telemetry::EventSink {
 public:
  TimingSink(std::unique_ptr<eof::telemetry::EventSink> inner, SpanLog* clock, SpanLog* log,
             int parent)
      : inner_(std::move(inner)), clock_(clock), log_(log), parent_(parent) {
    if (log_ != nullptr) {
      emit_ = log_->Name("telemetry.emit");
    }
  }

  bool Emit(const eof::telemetry::Event& event) override {
    int64_t start = clock_->Now();
    bool ok = inner_->Emit(event);
    int64_t end = clock_->Now();
    if (log_ != nullptr) {
      log_->Add(emit_, parent_, start, end);
    }
    if (event.type == "span") {
      for (const eof::telemetry::EventField& field : event.fields) {
        if (field.key == "span" && field.text_value == "deploy") {
          std::lock_guard<std::mutex> lock(mu_);
          deploy_ns_.push_back(end);
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++rows_;
    return ok;
  }
  void Flush() override { inner_->Flush(); }
  uint64_t dropped() const override { return inner_->dropped(); }

  std::vector<int64_t> deploy_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deploy_ns_;
  }
  uint64_t rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_;
  }

 private:
  std::unique_ptr<eof::telemetry::EventSink> inner_;
  SpanLog* clock_;
  SpanLog* log_;
  int parent_;
  int emit_ = 0;
  mutable std::mutex mu_;
  std::vector<int64_t> deploy_ns_;
  uint64_t rows_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
