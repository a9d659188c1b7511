// Timing decorators over the project's public virtual seams.
//
// A traced run wraps the protocol, the adversary and the billboard service
// in these classes and attaches a RoundClock observer; an untraced run uses
// the bare objects and no observer. Nothing inside the project is
// instrumented for this: every number here is taken from outside, at a seam
// the engine already calls through.
//
// Protocol hooks run on the round kernel's lanes concurrently, so their
// tallies live in one cache-line-sized slot per thread (LaneTallies) and are
// summed after the run — busy time summed over lanes, not wall time. They
// run millions of times a trial, and two clock reads cost about as much as
// the hook itself, so each lane times every kSampleStride-th call, takes off
// what an empty timed region costs (measured once per process) and scales
// the timed sum by calls / timed calls; call counts are exact.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "acp/billboard/service.hpp"
#include "acp/billboard/wire.hpp"
#include "acp/engine/adversary.hpp"
#include "acp/engine/observer.hpp"
#include "acp/engine/protocol.hpp"
#include "acp/world/world.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// What a timed region with nothing in it reads: the median of many empty
/// Clock::now() pairs, measured on first use.
inline double empty_timing_ns() {
  static const double cost = [] {
    std::vector<std::uint64_t> samples(1001);
    for (std::uint64_t& sample : samples) {
      const auto start = Clock::now();
      sample = ns_between(start, Clock::now());
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return static_cast<double>(samples[500]);
  }();
  return cost;
}

/// One hook's calls on one lane: every call counted, one in kSampleStride
/// timed.
struct HookTally {
  static constexpr std::uint64_t kSampleStride = 16;

  std::uint64_t calls = 0;
  std::uint64_t timed_calls = 0;
  std::uint64_t timed_ns = 0;

  /// Whether the call about to be counted is one of the timed ones.
  [[nodiscard]] bool timed_next() const noexcept {
    return calls % kSampleStride == 0;
  }

  /// Busy time of all calls, scaled up from the timed ones.
  [[nodiscard]] double busy_ns() const {
    if (timed_calls == 0) return 0.0;
    const double per_call =
        static_cast<double>(timed_ns) / static_cast<double>(timed_calls) -
        empty_timing_ns();
    return std::max(0.0, per_call) * static_cast<double>(calls);
  }
};

/// Per-lane accumulators of the protocol's per-player hooks.
struct alignas(64) LaneTally {
  HookTally choose;
  HookTally result;
  std::uint64_t halts = 0;
  std::uint64_t halts_on_bad = 0;  ///< halting probe on a non-good object
};

/// The lanes' tallies summed (busy times scaled per lane).
struct LaneTotals {
  double choose_ns = 0.0;
  std::uint64_t choose_calls = 0;
  double result_ns = 0.0;
  std::uint64_t result_calls = 0;
  std::uint64_t halts = 0;
  std::uint64_t halts_on_bad = 0;
};

/// One LaneTally per thread that touches this instance. Threads find their
/// slot through a thread_local cache keyed by a process-unique generation,
/// so a later instance at the same address never inherits a stale slot.
class LaneTallies {
 public:
  LaneTally& local() {
    thread_local std::uint64_t cached_generation = 0;
    thread_local LaneTally* cached_slot = nullptr;
    if (cached_generation != generation_) {
      const std::lock_guard<std::mutex> lock(mutex_);
      slots_.push_back(std::make_unique<LaneTally>());
      cached_slot = slots_.back().get();
      cached_generation = generation_;
    }
    return *cached_slot;
  }

  [[nodiscard]] LaneTotals sum() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    LaneTotals total;
    for (const auto& slot : slots_) {
      total.choose_ns += slot->choose.busy_ns();
      total.choose_calls += slot->choose.calls;
      total.result_ns += slot->result.busy_ns();
      total.result_calls += slot->result.calls;
      total.halts += slot->halts;
      total.halts_on_bad += slot->halts_on_bad;
    }
    return total;
  }

 private:
  static inline std::atomic<std::uint64_t> next_generation_{0};
  const std::uint64_t generation_ = ++next_generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<LaneTally>> slots_;
};

/// Protocol decorator: times on_round_begin/on_active_roster on the kernel
/// thread and choose_probe/on_probe_result per lane. Forwards the
/// parallel_choose_safe trait, so the engine picks the same policy as for
/// the bare protocol.
class TimedProtocol final : public acp::Protocol {
 public:
  TimedProtocol(acp::Protocol& inner, const acp::World& world)
      : inner_(inner), world_(world) {
    (void)empty_timing_ns();  // calibrate before the run, not after it
  }

  void initialize(const acp::WorldView& world,
                  std::size_t num_players) override {
    inner_.initialize(world, num_players);
  }

  void on_round_begin(acp::Round round,
                      const acp::Billboard& billboard) override {
    const auto start = Clock::now();
    inner_.on_round_begin(round, billboard);
    round_begin_ns_ += ns_between(start, Clock::now());
  }

  void on_active_roster(acp::Round round,
                        std::span<const acp::PlayerId> active,
                        acp::Rng& rng) override {
    const auto start = Clock::now();
    inner_.on_active_roster(round, active, rng);
    round_begin_ns_ += ns_between(start, Clock::now());
  }

  std::optional<acp::ObjectId> choose_probe(acp::PlayerId player,
                                            acp::Round round,
                                            acp::Rng& rng) override {
    HookTally& hook = lanes_.local().choose;
    if (!hook.timed_next()) {
      ++hook.calls;
      return inner_.choose_probe(player, round, rng);
    }
    const auto start = Clock::now();
    auto choice = inner_.choose_probe(player, round, rng);
    hook.timed_ns += ns_between(start, Clock::now());
    ++hook.timed_calls;
    ++hook.calls;
    return choice;
  }

  acp::StepOutcome on_probe_result(acp::PlayerId player, acp::Round round,
                                   acp::ObjectId object, double value,
                                   double cost, bool locally_good,
                                   acp::Rng& rng) override {
    LaneTally& lane = lanes_.local();
    HookTally& hook = lane.result;
    acp::StepOutcome outcome;
    if (!hook.timed_next()) {
      outcome = inner_.on_probe_result(player, round, object, value, cost,
                                       locally_good, rng);
    } else {
      const auto start = Clock::now();
      outcome = inner_.on_probe_result(player, round, object, value, cost,
                                       locally_good, rng);
      hook.timed_ns += ns_between(start, Clock::now());
      ++hook.timed_calls;
    }
    ++hook.calls;
    if (outcome.halt) {
      ++lane.halts;
      if (!world_.is_good(object)) ++lane.halts_on_bad;
    }
    return outcome;
  }

  [[nodiscard]] bool wants_halt_all(acp::Round round) const override {
    return inner_.wants_halt_all(round);
  }

  [[nodiscard]] bool parallel_choose_safe() const override {
    return inner_.parallel_choose_safe();
  }

  [[nodiscard]] std::uint64_t round_begin_ns() const noexcept {
    return round_begin_ns_;
  }
  [[nodiscard]] LaneTotals lanes() const { return lanes_.sum(); }

 private:
  acp::Protocol& inner_;
  const acp::World& world_;
  std::uint64_t round_begin_ns_ = 0;
  LaneTallies lanes_;
};

/// Adversary decorator: plan_round time and the posts it fabricated.
class TimedAdversary final : public acp::Adversary {
 public:
  explicit TimedAdversary(acp::Adversary& inner) : inner_(inner) {}

  void initialize(const acp::World& world,
                  const acp::Population& population) override {
    inner_.initialize(world, population);
  }

  void plan_round(const acp::AdversaryContext& ctx,
                  std::vector<acp::Post>& out, acp::Rng& rng) override {
    const std::size_t before = out.size();
    const auto start = Clock::now();
    inner_.plan_round(ctx, out, rng);
    plan_ns_ += ns_between(start, Clock::now());
    posts_ += out.size() - before;
  }

  [[nodiscard]] std::uint64_t plan_ns() const noexcept { return plan_ns_; }
  [[nodiscard]] std::uint64_t posts() const noexcept { return posts_; }

 private:
  acp::Adversary& inner_;
  std::uint64_t plan_ns_ = 0;
  std::uint64_t posts_ = 0;
};

/// BillboardService decorator over either backend. Times each commit and
/// then, outside that timing, re-encodes the round with the wire codec to
/// count the bytes a commit frame carries and what encoding it costs.
class TimedBillboard final : public acp::BillboardService {
 public:
  explicit TimedBillboard(acp::BillboardService& inner) : inner_(inner) {}

  void commit_round(acp::Round round, std::vector<acp::Post> posts) override {
    commit_round_from(round, posts);
  }

  void commit_round_from(acp::Round round,
                         std::span<const acp::Post> posts) override {
    const auto start = Clock::now();
    inner_.commit_round_from(round, posts);
    count_commit(start, posts.size());
    encode(round, posts);
  }

  void reserve(std::size_t expected_posts) override {
    inner_.reserve(expected_posts);
  }
  [[nodiscard]] const acp::Billboard& board() const noexcept override {
    return inner_.board();
  }
  [[nodiscard]] acp::Count votes_in_window(acp::ObjectId object,
                                           acp::Round begin,
                                           acp::Round end) override {
    return inner_.votes_in_window(object, begin, end);
  }
  void votes_in_window_batch(std::span<const acp::ObjectId> objects,
                             acp::Round begin, acp::Round end,
                             std::vector<acp::Count>& out) override {
    inner_.votes_in_window_batch(objects, begin, end, out);
  }
  [[nodiscard]] std::vector<acp::Post> snapshot() override {
    return inner_.snapshot();
  }
  [[nodiscard]] std::string backend_name() const override {
    return inner_.backend_name();
  }

  [[nodiscard]] std::uint64_t commit_ns() const noexcept { return commit_ns_; }
  [[nodiscard]] std::uint64_t commits() const noexcept { return commits_; }
  [[nodiscard]] std::uint64_t posts() const noexcept { return posts_; }
  [[nodiscard]] std::uint64_t encode_ns() const noexcept { return encode_ns_; }
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept {
    return wire_bytes_;
  }

 private:
  void count_commit(Clock::time_point start, std::size_t posts) {
    commit_ns_ += ns_between(start, Clock::now());
    ++commits_;
    posts_ += posts;
  }

  void encode(acp::Round round, std::span<const acp::Post> posts) {
    frame_.clear();
    const auto start = Clock::now();
    acp::bbwire::encode_commit(frame_, round, posts);
    encode_ns_ += ns_between(start, Clock::now());
    wire_bytes_ += frame_.size();
  }

  acp::BillboardService& inner_;
  std::vector<std::uint8_t> frame_;
  std::uint64_t commit_ns_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t posts_ = 0;
  std::uint64_t encode_ns_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

/// Wall time of the rounds, from the observer's on_round_end deltas (the
/// first round is measured from on_run_begin), and the engine threads that
/// ran them.
class RoundClock final : public acp::RunObserver {
 public:
  void on_run_begin(const acp::RunContext& context) override {
    lanes_ = context.engine_threads;
    rounds_s_ = 0.0;
    last_ = Clock::now();
  }
  void on_round_end(acp::Round, const acp::Billboard&, std::size_t,
                    std::size_t, std::size_t) override {
    const auto now = Clock::now();
    rounds_s_ += seconds_between(last_, now);
    last_ = now;
  }

  [[nodiscard]] double rounds_seconds() const noexcept { return rounds_s_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

 private:
  double rounds_s_ = 0.0;
  std::size_t lanes_ = 1;
  Clock::time_point last_{};
};

}  // namespace e2ebench
